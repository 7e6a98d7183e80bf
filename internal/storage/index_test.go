package storage

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

func indexDB(t *testing.T) *Database {
	t.Helper()
	s := &schema.Schema{
		Name: "idx",
		Tables: []*schema.Table{
			{Name: "Item", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "tag", Type: sqltypes.KindText},
				{Name: "score", Type: sqltypes.KindFloat},
			}},
			{Name: "Pair", Columns: []schema.Column{
				{Name: "a", Type: sqltypes.KindInt},
				{Name: "b", Type: sqltypes.KindText},
				{Name: "c", Type: sqltypes.KindInt},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	db.MustInsert("Item", sqltypes.NewInt(1), sqltypes.NewText("a"), sqltypes.NewFloat(2.0))
	db.MustInsert("Item", sqltypes.NewInt(2), sqltypes.NewText("b"), sqltypes.NewFloat(2.5))
	db.MustInsert("Item", sqltypes.NewInt(3), sqltypes.Null(), sqltypes.NewFloat(2.0))
	db.MustInsert("Item", sqltypes.NewInt(4), sqltypes.NewText("a"), sqltypes.Null())
	db.MustInsert("Pair", sqltypes.NewInt(1), sqltypes.NewText("x"), sqltypes.NewInt(10))
	db.MustInsert("Pair", sqltypes.NewInt(1), sqltypes.NewText("y"), sqltypes.NewInt(11))
	db.MustInsert("Pair", sqltypes.NewInt(1), sqltypes.NewText("x"), sqltypes.NewInt(12))
	db.MustInsert("Pair", sqltypes.Null(), sqltypes.NewText("x"), sqltypes.NewInt(13))
	db.MustInsert("Pair", sqltypes.NewInt(2), sqltypes.Null(), sqltypes.NewInt(14))
	return db
}

// hashCase is one column tuple the hash-index lifecycle tests run over.
type hashCase struct {
	name     string
	table    string
	cols     []int
	probe    []sqltypes.Value // key values, one per column of cols
	want     []int32          // rows matching probe in indexDB, scan order
	distinct int              // distinct fully-non-NULL key tuples
	moved    sqltypes.Value   // what mutations rewrite probe[0] to
	extra    sqltypes.Row     // a row to append that matches probe
	nullKey  sqltypes.Row     // a row with a NULL key column
}

var hashCases = []hashCase{
	{
		name: "one-column", table: "Item", cols: []int{1},
		probe: []sqltypes.Value{sqltypes.NewText("a")}, want: []int32{0, 3}, distinct: 2,
		moved:   sqltypes.NewText("z"),
		extra:   sqltypes.Row{sqltypes.NewInt(5), sqltypes.NewText("a"), sqltypes.NewFloat(9)},
		nullKey: sqltypes.Row{sqltypes.NewInt(6), sqltypes.Null(), sqltypes.NewFloat(9)},
	},
	{
		// A NULL in either key column leaves the row unindexed.
		name: "two-column", table: "Pair", cols: []int{0, 1},
		probe: []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewText("x")}, want: []int32{0, 2}, distinct: 2,
		moved:   sqltypes.NewInt(7),
		extra:   sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewText("x"), sqltypes.NewInt(15)},
		nullKey: sqltypes.Row{sqltypes.Null(), sqltypes.NewText("x"), sqltypes.NewInt(16)},
	},
}

// key encodes vals the way the executor encodes a probe tuple.
func (c hashCase) key(t *testing.T, vals []sqltypes.Value) []byte {
	t.Helper()
	key, ok := sqltypes.Row(vals).AppendCompareKeyCols(nil, []int{0, 1, 2}[:len(vals)])
	if !ok {
		t.Fatal("unexpected NULL probe key")
	}
	return key
}

// lookup probes db's index over the case's columns.
func (c hashCase) lookup(t *testing.T, db *Database, vals []sqltypes.Value) []int32 {
	t.Helper()
	return db.Index(c.table, c.cols...).Lookup(c.key(t, vals))
}

// movedProbe is probe with its first value rewritten the way move does.
func (c hashCase) movedProbe() []sqltypes.Value {
	return append([]sqltypes.Value{c.moved}, c.probe[1:]...)
}

// move rewrites every probe[0] value in the case's first key column.
func (c hashCase) move(db *Database) {
	db.Mutate(func(table string, row sqltypes.Row) {
		if table == strings.ToLower(c.table) && sqltypes.Equal(row[c.cols[0]], c.probe[0]) {
			row[c.cols[0]] = c.moved
		}
	})
}

func lookupVal(db *Database, table string, col int, v sqltypes.Value) []int32 {
	key, ok := v.AppendCompareKey(nil)
	if !ok {
		return nil
	}
	return db.Index(table, col).Lookup(key)
}

func TestIndexLookup(t *testing.T) {
	db := indexDB(t)
	if got := lookupVal(db, "Item", 1, sqltypes.NewText("missing")); len(got) != 0 {
		t.Fatalf("missing key rows: %v", got)
	}
	// Numerics bucket by Compare equality: INTEGER 2 probes REAL 2.0.
	if got := lookupVal(db, "Item", 2, sqltypes.NewInt(2)); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("score=2 rows: %v", got)
	}
	for _, c := range hashCases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, c.want) {
				t.Fatalf("%v rows: %v, want %v", c.probe, got, c.want)
			}
			if got := db.Index(c.table, c.cols...).Distinct(); got != c.distinct {
				t.Fatalf("distinct: %d, want %d", got, c.distinct)
			}
		})
	}
	// Column order is part of the identity; one column is a 1-tuple.
	if db.Index("Pair", 0, 1) == db.Index("Pair", 1, 0) {
		t.Fatal("(a,b) and (b,a) must be distinct indexes")
	}
	if db.Index("Pair", 0) == db.Index("Pair", 0, 1) {
		t.Fatal("(a) and (a,b) must be distinct indexes")
	}
}

func TestIndexSkipsNulls(t *testing.T) {
	db := indexDB(t)
	ix := db.Index("Item", 1)
	total := 0
	for _, v := range []string{"a", "b"} {
		total += len(lookupVal(db, "Item", 1, sqltypes.NewText(v)))
	}
	if total != 3 || ix.NonNull() != 3 {
		t.Fatalf("non-NULL indexed rows: %d (NonNull %d)", total, ix.NonNull())
	}
	if got := db.Index("Pair", 0, 1).NonNull(); got != 3 {
		t.Fatalf("rows with no NULL key column: %d, want 3", got)
	}
	// A NULL probe key must match nothing (= is NULL-rejecting).
	if _, ok := sqltypes.Null().AppendCompareKey(nil); ok {
		t.Fatal("NULL must not encode to a probe key")
	}
}

func TestIndexBoundsAndUnknowns(t *testing.T) {
	db := indexDB(t)
	if db.Index("Ghost", 0) != nil || db.Index("Ghost", 0, 1) != nil {
		t.Fatal("unknown table must have no index")
	}
	if db.Index("Item", -1) != nil || db.Index("Item", 99) != nil || db.Index("Pair", 0, 9) != nil {
		t.Fatal("out-of-range columns must have no index")
	}
	if db.Index("Item") != nil {
		t.Fatal("an empty column tuple must have no index")
	}
}

// TestIndexMaintainedOnInsert pins the write rule for hash indexes: Insert
// drops its table's built indexes, and the next probe rebuilds one that
// holds the new row.
func TestIndexMaintainedOnInsert(t *testing.T) {
	for _, c := range hashCases {
		t.Run(c.name, func(t *testing.T) {
			db := indexDB(t)
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, c.want) {
				t.Fatalf("%v rows: %v", c.probe, got)
			}
			if !db.HasIndex(c.table, c.cols...) {
				t.Fatal("index should exist after first probe")
			}
			pos := int32(db.NumRows(c.table))
			if err := db.Insert(c.table, c.extra); err != nil {
				t.Fatal(err)
			}
			if db.HasIndex(c.table, c.cols...) {
				t.Fatal("insert must drop the table's built index")
			}
			want := append(slices.Clone(c.want), pos)
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, want) {
				t.Fatalf("%v rows after insert: %v, want %v", c.probe, got, want)
			}
			// A NULL-keyed insert drops the index too, and the rebuilt one
			// leaves the row out.
			nonNull := db.Index(c.table, c.cols...).NonNull()
			if err := db.Insert(c.table, c.nullKey); err != nil {
				t.Fatal(err)
			}
			if db.HasIndex(c.table, c.cols...) {
				t.Fatal("NULL-keyed insert must drop the table's built index")
			}
			if got := db.Index(c.table, c.cols...).NonNull(); got != nonNull {
				t.Fatalf("NonNull after NULL-keyed insert: %d, want %d", got, nonNull)
			}
		})
	}
}

// TestInsertKeepsOtherTablesIndexes pins the scope of the write rule: an
// Insert drops the indexes of the table it writes and no other's.
func TestInsertKeepsOtherTablesIndexes(t *testing.T) {
	db := indexDB(t)
	pair := db.Index("Pair", 0, 1)
	sorted := db.Sorted("Pair", 2)
	db.Index("Item", 1)
	if err := db.Insert("Item", sqltypes.Row{sqltypes.NewInt(5), sqltypes.NewText("c"), sqltypes.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	if db.HasIndex("Item", 1) {
		t.Fatal("insert must drop the written table's indexes")
	}
	if db.Index("Pair", 0, 1) != pair || db.Sorted("Pair", 2) != sorted {
		t.Fatal("insert into Item must leave Pair's built indexes in place")
	}
}

func TestIndexInvalidatedOnMutate(t *testing.T) {
	for _, c := range hashCases {
		t.Run(c.name, func(t *testing.T) {
			db := indexDB(t)
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, c.want) {
				t.Fatalf("%v rows: %v", c.probe, got)
			}
			c.move(db)
			if db.HasIndex(c.table, c.cols...) {
				t.Fatal("mutate must drop built indexes")
			}
			if got := c.lookup(t, db, c.probe); len(got) != 0 {
				t.Fatalf("stale %v rows after mutate: %v", c.probe, got)
			}
			if got := c.lookup(t, db, c.movedProbe()); !slices.Equal(got, c.want) {
				t.Fatalf("%v rows after mutate: %v", c.movedProbe(), got)
			}
		})
	}
}

func TestIndexCloneIsolation(t *testing.T) {
	for _, c := range hashCases {
		t.Run(c.name, func(t *testing.T) {
			db := indexDB(t)
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, c.want) {
				t.Fatalf("%v rows: %v", c.probe, got)
			}
			cp := db.Clone()
			if cp.HasIndex(c.table, c.cols...) {
				t.Fatal("clone must start with no indexes")
			}
			c.move(cp)
			if got := c.lookup(t, cp, c.movedProbe()); !slices.Equal(got, c.want) {
				t.Fatalf("clone %v rows: %v", c.movedProbe(), got)
			}
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, c.want) {
				t.Fatal("original index must be untouched by clone mutation")
			}
			if got := c.lookup(t, db, c.movedProbe()); len(got) != 0 {
				t.Fatal("original must not see clone values")
			}
		})
	}
}

func TestIndexRebuiltOnDirectAppend(t *testing.T) {
	for _, c := range hashCases {
		t.Run(c.name, func(t *testing.T) {
			db := indexDB(t)
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, c.want) {
				t.Fatalf("%v rows: %v", c.probe, got)
			}
			// Appending to the relation behind the store's back (callers are
			// told not to, but the row-count check makes it safe anyway).
			pos := int32(db.NumRows(c.table))
			db.Table(c.table).Append(c.extra.Clone())
			want := append(slices.Clone(c.want), pos)
			if got := c.lookup(t, db, c.probe); !slices.Equal(got, want) {
				t.Fatalf("%v rows after direct append: %v, want %v", c.probe, got, want)
			}
		})
	}
}

// TestIndexLookupAllocGate pins the warm probe path: finding a published
// hash index by its column tuple, with the lower-case table name the
// executor passes, allocates nothing — whether the tuple arrives as
// variadic arguments (a point probe) or as a slice (a join build side).
// It also pins the packed build: a 4,000-row unique key costs a few dozen
// objects (slice growth), not one bucket and one key string per row.
func TestIndexLookupAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := indexDB(t)
	two, three := []int{0, 1}, []int{0, 1, 2}
	db.Index("item", 1)
	db.Index("pair", two...)
	db.Index("pair", three...)
	for _, tc := range []struct {
		name  string
		probe func() *HashIndex
	}{
		{"one column", func() *HashIndex { return db.Index("item", 1) }},
		{"two columns", func() *HashIndex { return db.Index("pair", two...) }},
		{"three columns", func() *HashIndex { return db.Index("pair", three...) }},
	} {
		if allocs := testing.AllocsPerRun(100, func() { tc.probe() }); allocs != 0 {
			t.Errorf("%s: warm Index allocates %.0f/op, want 0", tc.name, allocs)
		}
	}

	const rows = 4000
	rel := &sqltypes.Relation{Columns: []string{"id"}}
	for i := range rows {
		rel.Append(sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	id := []int{0}
	if allocs := testing.AllocsPerRun(10, func() { buildIndex(rel, false, id) }); allocs >= 100 {
		t.Errorf("building a %d-row unique-key index allocates %.0f objects, want < 100", rows, allocs)
	}
}

// TestIndexConcurrentLazyBuild races many readers on cold hash indexes of
// every tuple length and on cold sorted indexes of the same tables, which
// all publish through one lazy routine into one set per table: every
// goroutine must observe a complete, correct index whether it built one
// itself or caught another goroutine's publication. Run under -race this
// is the regression gate for the guarded lazy build.
func TestIndexConcurrentLazyBuild(t *testing.T) {
	for _, c := range hashCases {
		t.Run(c.name, func(t *testing.T) {
			db := indexDB(t)
			// Precompute the probe key on the test goroutine: workers must
			// not call t.Fatal.
			key := c.key(t, c.probe)
			lower := strings.ToLower(c.table)
			rows := db.NumRows(c.table)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						if got := len(db.Index(c.table, c.cols...).Lookup(key)); got != len(c.want) {
							t.Errorf("%v rows = %d, want %d", c.probe, got, len(c.want))
						}
						if got := db.Index(lower, c.cols...).Distinct(); got != c.distinct {
							t.Errorf("distinct = %d, want %d", got, c.distinct)
						}
						if got := len(db.Sorted(c.table, 2).Positions()); got != rows {
							t.Errorf("sorted positions = %d, want %d", got, rows)
						}
						if got := db.Sorted(lower, c.cols[0]).NullCount(); got != 1 {
							t.Errorf("null count = %d, want 1", got)
						}
					}
				}()
			}
			wg.Wait()
			// All goroutines settled: exactly one index per tuple is published.
			if !db.HasIndex(c.table, c.cols...) || !db.HasSorted(c.table, 2) || !db.HasSorted(c.table, c.cols[0]) {
				t.Fatal("indexes must remain published after concurrent builds")
			}
		})
	}
}
