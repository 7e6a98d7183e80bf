package storage

import (
	"math"
	"slices"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

// fuzzValue decodes one key value from two bytes: the first picks the
// kind, the second a value from a small domain, so columns repeat values
// often and numerics meet across the INTEGER/REAL divide (INTEGER 1 and
// REAL 1.0, REAL 0 and -0). TEXT "1" looks like a number but never
// equals one.
func fuzzValue(kind, b byte) sqltypes.Value {
	switch kind % 4 {
	case 0:
		return sqltypes.NewInt(int64(b%8) - 2)
	case 1:
		if b%16 == 15 {
			return sqltypes.NewFloat(math.Copysign(0, -1))
		}
		return sqltypes.NewFloat(float64(b%16)/2 - 2)
	case 2:
		return sqltypes.NewText([]string{"", "a", "b", "1", "a\x00", "ab"}[b%6])
	default:
		return sqltypes.Null()
	}
}

// oracleHashIndex is the map-of-buckets layout the packed index replaced,
// kept as the reference the fuzzer holds it to.
func oracleHashIndex(rel *sqltypes.Relation, cols []int) map[string][]int32 {
	groups := map[string][]int32{}
	var buf []byte
	for ri, row := range rel.Rows {
		key, ok := hashKey(buf[:0], row, cols)
		buf = key
		if ok {
			groups[string(key)] = append(groups[string(key)], int32(ri))
		}
	}
	return groups
}

// FuzzHashIndex builds the packed hash and sorted indexes over a prefix of
// a random table of one- or two-column keys, inserts the remaining rows
// through Database.Insert, which drops both, and holds the rebuilt hash
// index to the map-of-buckets oracle: every present key's Lookup equals
// its oracle bucket element for element and has no spare capacity
// (appending to one bucket must not overwrite the next), absent keys find
// nothing, and Distinct and NonNull match. Over one column the rebuilt
// sorted index's Distinct and NonNull must match too. The seed corpus in
// testdata/fuzz/FuzzHashIndex runs with every go test.
func FuzzHashIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, twoCols bool, built uint8) {
		width := 1
		if twoCols {
			width = 2
		}
		var rows []sqltypes.Row
		for len(data) >= 2*width {
			row := make(sqltypes.Row, width)
			for c := range row {
				row[c] = fuzzValue(data[0], data[1])
				data = data[2:]
			}
			rows = append(rows, row)
		}
		cols := []int{0, 1}[:width]
		k := int(built) % (len(rows) + 1)
		// Untyped columns: Insert coerces nothing, so INTEGER 1 and REAL
		// 1.0 stay distinct values that the key encoding must equate.
		s := &schema.Schema{Name: "fuzz", Tables: []*schema.Table{{Name: "t",
			Columns: []schema.Column{{Name: "a"}, {Name: "b"}}[:width]}}}
		db := NewDatabase(s)
		for _, row := range rows[:k] {
			if err := db.Insert("t", row); err != nil {
				t.Fatal(err)
			}
		}
		db.Index("t", cols...)
		db.Sorted("t", 0)
		for _, row := range rows[k:] {
			if err := db.Insert("t", row); err != nil {
				t.Fatal(err)
			}
			if db.HasIndex("t", cols...) || db.HasSorted("t", 0) {
				t.Fatal("Insert must drop the table's indexes")
			}
		}
		ix, sx := db.Index("t", cols...), db.Sorted("t", 0)

		want := oracleHashIndex(db.Table("t"), cols)
		nonNull := 0
		for key, bucket := range want {
			got := ix.Lookup([]byte(key))
			if !slices.Equal(got, bucket) {
				t.Fatalf("Lookup(%x) = %v, want %v", key, got, bucket)
			}
			if cap(got) != len(got) {
				t.Fatalf("Lookup(%x) has cap %d > len %d", key, cap(got), len(got))
			}
			nonNull += len(bucket)
		}
		absent := [][]byte{nil, {0x01}}
		for _, v := range []sqltypes.Value{sqltypes.NewInt(99), sqltypes.NewFloat(0.25), sqltypes.NewText("zz")} {
			key, _ := sqltypes.Row{v, v}.AppendCompareKeyCols(nil, cols)
			absent = append(absent, key)
		}
		for _, key := range absent {
			if _, ok := want[string(key)]; !ok && len(ix.Lookup(key)) != 0 {
				t.Fatalf("absent key %x found rows %v", key, ix.Lookup(key))
			}
		}
		if ix.Distinct() != len(want) || ix.NonNull() != nonNull {
			t.Fatalf("Distinct/NonNull = %d/%d, want %d/%d", ix.Distinct(), ix.NonNull(), len(want), nonNull)
		}
		if width == 1 && (sx.Distinct() != len(want) || sx.NonNull() != nonNull) {
			t.Fatalf("sorted Distinct/NonNull = %d/%d, want %d/%d", sx.Distinct(), sx.NonNull(), len(want), nonNull)
		}
	})
}
