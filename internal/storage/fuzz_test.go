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

// checkHashIndex holds ix to the map-of-buckets oracle over rows: every
// present key's Lookup equals its oracle bucket element for element and
// has no spare capacity (appending to one bucket must not overwrite the
// next), absent keys find nothing, and Distinct and NonNull match. It
// returns the oracle's Distinct and NonNull.
func checkHashIndex(t *testing.T, ix *HashIndex, rows []sqltypes.Row, cols []int) (distinct, nonNull int) {
	t.Helper()
	want := oracleHashIndex(&sqltypes.Relation{Rows: rows}, cols)
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
	return len(want), nonNull
}

// FuzzHashIndex builds the packed hash and sorted indexes over a prefix of
// a random table of one- or two-column keys, inserts the remaining rows
// through Database.Insert, which drops both, and holds the rebuilt hash
// index to the map-of-buckets oracle (checkHashIndex). Over one column
// the rebuilt sorted index's Distinct and NonNull must match too. The
// reuse leg then builds one HashIndex value over the whole table, the
// prefix and the whole table again, unreserved and reserved as the
// executor's per-execution join builds are, so each build follows a larger
// or a smaller one in the same storage; every build must match the
// oracle. The seed corpus in testdata/fuzz/FuzzHashIndex runs with every
// go test.
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
		all := db.Table("t").Rows
		distinct, nonNull := checkHashIndex(t, db.Index("t", cols...), all, cols)
		if sx := db.Sorted("t", 0); width == 1 && (sx.Distinct() != distinct || sx.NonNull() != nonNull) {
			t.Fatalf("sorted Distinct/NonNull = %d/%d, want %d/%d", sx.Distinct(), sx.NonNull(), distinct, nonNull)
		}

		for _, reserve := range []bool{false, true} {
			var ix HashIndex
			for _, part := range [][]sqltypes.Row{all, all[:k], all} {
				if reserve {
					ix.Reserve(len(part))
				}
				ix.Build(part, cols)
				checkHashIndex(t, &ix, part, cols)
			}
		}
	})
}

// FuzzGroups runs a random sequence of Add, Find and Reset on one Groups
// table against a map oracle that numbers keys in first-seen order. Each
// byte of data is an operation: its low two bits pick Add (0, 1), Find
// (2) or Reset (3), and its high six bits a key of zero to three bytes
// from a small alphabet, so keys repeat, share prefixes and differ in
// length, and runs of new keys grow the probe table. Add must return the
// oracle's group and whether it was new, Find the group or -1, and Len
// the oracle's size; after the sequence every oracle key must still find
// its group. The seed corpus in testdata/fuzz/FuzzGroups runs with every
// go test.
func FuzzGroups(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var gs Groups
		want := map[string]int{}
		for _, b := range data {
			arg := int(b >> 2)
			key := []byte("\x00ab\x00")[:arg%4]
			for i := range key {
				key[i] += byte(arg / 4)
			}
			switch b & 3 {
			case 0, 1:
				g, added := gs.Add(key)
				wg, had := want[string(key)]
				if !had {
					wg = len(want)
					want[string(key)] = wg
				}
				if g != wg || added == had {
					t.Fatalf("Add(%x) = %d, %v; want %d, %v", key, g, added, wg, !had)
				}
			case 2:
				wg, had := want[string(key)]
				if !had {
					wg = -1
				}
				if g := gs.Find(key); g != wg {
					t.Fatalf("Find(%x) = %d, want %d", key, g, wg)
				}
			case 3:
				gs.Reset()
				clear(want)
			}
			if gs.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", gs.Len(), len(want))
			}
		}
		for key, wg := range want {
			if g := gs.Find([]byte(key)); g != wg {
				t.Fatalf("Find(%x) = %d after the sequence, want %d", key, g, wg)
			}
		}
	})
}
