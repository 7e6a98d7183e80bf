package storage

import (
	"slices"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

// sortedDB builds a table mixing kinds within one column (score holds
// INTEGER, REAL and NULL; the id column stays unique) so the ordering
// tests cover cross-kind Compare semantics.
func sortedDB(t testing.TB) *Database {
	t.Helper()
	s := &schema.Schema{
		Name: "sortidx",
		Tables: []*schema.Table{
			{Name: "Item", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "tag", Type: sqltypes.KindText},
				{Name: "score", Type: sqltypes.KindFloat},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	// Scan order: ties on score (2 vs 2.0), a NULL, text-vs-number mix in
	// tag, negative and fractional values.
	db.MustInsert("Item", sqltypes.NewInt(1), sqltypes.NewText("b"), sqltypes.NewFloat(2.0))
	db.MustInsert("Item", sqltypes.NewInt(2), sqltypes.NewText("a"), sqltypes.NewInt(2))
	db.MustInsert("Item", sqltypes.NewInt(3), sqltypes.Null(), sqltypes.NewFloat(-1.5))
	db.MustInsert("Item", sqltypes.NewInt(4), sqltypes.NewText("c"), sqltypes.Null())
	db.MustInsert("Item", sqltypes.NewInt(5), sqltypes.NewText("a"), sqltypes.NewFloat(3.25))
	return db
}

func positions(ix *SortedIndex) []int32 { return ix.Positions() }

func TestSortedIndexOrder(t *testing.T) {
	db := sortedDB(t)
	ix := db.Sorted("Item", 2) // score
	if ix == nil {
		t.Fatal("no sorted index")
	}
	// NULL first, then -1.5, then the 2 == 2.0 tie in scan order, then 3.25.
	want := []int32{3, 2, 0, 1, 4}
	got := positions(ix)
	if len(got) != len(want) {
		t.Fatalf("positions: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions = %v, want %v", got, want)
		}
	}
	if ix.NullCount() != 1 {
		t.Fatalf("null count = %d, want 1", ix.NullCount())
	}
}

func TestSortedIndexRange(t *testing.T) {
	db := sortedDB(t)
	ix := db.Sorted("Item", 2)
	v := func(f float64) *sqltypes.Value {
		val := sqltypes.NewFloat(f)
		return &val
	}
	span := func(lo, hi *sqltypes.Value, loIncl, hiIncl bool) []int32 {
		return ix.Range(lo, hi, loIncl, hiIncl)
	}
	// score >= 2: the 2/2.0 tie in scan order, then 3.25.
	if got := span(v(2), nil, true, false); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("score >= 2: %v", got)
	}
	// score > 2 excludes both members of the tie.
	if got := span(v(2), nil, false, false); len(got) != 1 || got[0] != 4 {
		t.Fatalf("score > 2: %v", got)
	}
	// score < 2 excludes NULL (position 3) as every comparison does.
	if got := span(nil, v(2), false, false); len(got) != 1 || got[0] != 2 {
		t.Fatalf("score < 2: %v", got)
	}
	// BETWEEN-style two-sided span.
	if got := span(v(-2), v(2.5), true, true); len(got) != 3 {
		t.Fatalf("score between -2 and 2.5: %v", got)
	}
	// Inverted bounds are empty, not a panic.
	if got := span(v(5), v(1), true, true); len(got) != 0 {
		t.Fatalf("inverted span: %v", got)
	}
	// A text bound on the tag column: numbers sort before text, and the
	// span respects Compare's cross-kind order.
	tagB := sqltypes.NewText("b")
	if got := db.Sorted("Item", 1).Range(&tagB, nil, true, false); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("tag >= 'b': %v", got)
	}
}

// TestSortedIndexMaintainedOnInsert pins the write rule for sorted
// indexes: Insert drops its table's sorted indexes, and the next use
// rebuilds one that orders the new rows.
func TestSortedIndexMaintainedOnInsert(t *testing.T) {
	db := sortedDB(t)
	ix := db.Sorted("Item", 2)
	if !db.HasSorted("Item", 2) {
		t.Fatal("sorted index should exist after first use")
	}
	// An equal-valued insert must land at the end of its value run (scan
	// order), a NULL at the end of the NULL prefix.
	db.MustInsert("Item", sqltypes.NewInt(6), sqltypes.NewText("d"), sqltypes.NewInt(2))
	if db.HasSorted("Item", 2) {
		t.Fatal("insert must drop the table's built sorted index")
	}
	db.MustInsert("Item", sqltypes.NewInt(7), sqltypes.NewText("e"), sqltypes.Null())
	got := positions(db.Sorted("Item", 2))
	want := []int32{3, 6, 2, 0, 1, 5, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("positions after insert = %v, want %v", got, want)
	}
	if db.Sorted("Item", 2) == ix {
		t.Fatal("the rebuilt index must be a new instance")
	}
}

func TestSortedIndexInvalidatedOnMutate(t *testing.T) {
	db := sortedDB(t)
	if db.Sorted("Item", 2) == nil {
		t.Fatal("no sorted index")
	}
	db.Mutate(func(table string, row sqltypes.Row) {
		if !row[2].IsNull() {
			row[2] = sqltypes.NewFloat(-row[2].Float())
		}
	})
	if db.HasSorted("Item", 2) {
		t.Fatal("mutate must drop built sorted indexes")
	}
	// The rebuilt index reflects the negated values: 3.25 became the
	// minimum non-NULL value.
	got := positions(db.Sorted("Item", 2))
	if got[1] != 4 {
		t.Fatalf("rebuilt positions = %v, want row 4 first after NULL", got)
	}
}

func TestSortedIndexCloneIsolation(t *testing.T) {
	db := sortedDB(t)
	orig := positions(db.Sorted("Item", 2))
	cp := db.Clone()
	if cp.HasSorted("Item", 2) {
		t.Fatal("clone must start with no sorted indexes")
	}
	cp.Mutate(func(table string, row sqltypes.Row) {
		row[2] = sqltypes.NewInt(0)
	})
	if got := positions(cp.Sorted("Item", 2)); got[0] != 0 {
		t.Fatalf("clone index must order by clone values: %v", got)
	}
	if got := positions(db.Sorted("Item", 2)); got[0] != orig[0] {
		t.Fatal("original sorted index must be untouched by clone mutation")
	}
}

func TestSortedIndexRebuiltOnDirectAppend(t *testing.T) {
	db := sortedDB(t)
	if got := positions(db.Sorted("Item", 2)); len(got) != 5 {
		t.Fatalf("positions: %v", got)
	}
	db.Table("Item").Append(sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewText("z"), sqltypes.NewFloat(99)})
	got := positions(db.Sorted("Item", 2))
	if len(got) != 6 || got[5] != 5 {
		t.Fatalf("positions after direct append = %v", got)
	}
}
