package storage

import (
	"math/rand"
	"sync"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

func statsDB(t *testing.T) *Database {
	t.Helper()
	s := &schema.Schema{
		Name: "st",
		Tables: []*schema.Table{
			{Name: "Item", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "tag", Type: sqltypes.KindText},
				{Name: "score", Type: sqltypes.KindFloat},
			}},
			{Name: "Empty", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "v", Type: sqltypes.KindInt},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	db.MustInsert("Item", sqltypes.NewInt(1), sqltypes.NewText("a"), sqltypes.Null())
	db.MustInsert("Item", sqltypes.NewInt(2), sqltypes.NewText("b"), sqltypes.Null())
	db.MustInsert("Item", sqltypes.NewInt(3), sqltypes.Null(), sqltypes.Null())
	db.MustInsert("Item", sqltypes.NewInt(4), sqltypes.NewText("a"), sqltypes.Null())
	return db
}

func TestColStatsBasics(t *testing.T) {
	db := statsDB(t)
	c, ok := db.ColStats("Item", 1)
	if !ok {
		t.Fatal("ColStats must report ok for a known column")
	}
	if c.Rows != 4 || c.NonNull != 3 || c.Distinct != 2 {
		t.Fatalf("tag stats = %+v, want Rows=4 NonNull=3 Distinct=2", c)
	}
	if !c.HasBounds || c.Min.Text() != "a" || c.Max.Text() != "b" {
		t.Fatalf("tag bounds = %+v, want [a, b]", c)
	}
	ids, ok := db.ColStats("item", 0)
	if !ok || ids.Distinct != 4 || ids.Min.Int() != 1 || ids.Max.Int() != 4 {
		t.Fatalf("id stats (case-folded) = %+v ok=%v", ids, ok)
	}
	if _, ok := db.ColStats("Ghost", 0); ok {
		t.Fatal("unknown table must report ok=false")
	}
	if _, ok := db.ColStats("Item", 99); ok {
		t.Fatal("out-of-range column must report ok=false")
	}
}

// TestColStatsBoundaries pins the "no index" versus "zero distinct keys"
// distinction the Distinct docs promise: an empty table and an all-NULL
// column both yield a real, non-nil index whose Distinct and NonNull are
// zero, and ColStats reports them ok=true with zero counts and no bounds —
// never ok=false, which is reserved for columns that do not exist.
func TestColStatsBoundaries(t *testing.T) {
	db := statsDB(t)

	// Empty table: the index exists and proves no probe can match.
	ix := db.Index("Empty", 1)
	if ix == nil {
		t.Fatal("empty table must still build an index")
	}
	if ix.Distinct() != 0 || ix.NonNull() != 0 {
		t.Fatalf("empty-table index Distinct=%d NonNull=%d, want 0/0", ix.Distinct(), ix.NonNull())
	}
	if _, ok := db.Sorted("Empty", 1).Min(); ok {
		t.Fatal("empty table must have no Min")
	}
	c, ok := db.ColStats("Empty", 1)
	if !ok || c.Rows != 0 || c.NonNull != 0 || c.Distinct != 0 || c.HasBounds {
		t.Fatalf("empty-table stats = %+v ok=%v, want ok with zero counts", c, ok)
	}

	// All-NULL column: rows exist but none are indexed.
	ix = db.Index("Item", 2)
	if ix == nil || ix.Distinct() != 0 || ix.NonNull() != 0 {
		t.Fatalf("all-NULL index = %v (Distinct=%d), want non-nil with 0 keys", ix, ix.Distinct())
	}
	if _, ok := db.Sorted("Item", 2).Max(); ok {
		t.Fatal("all-NULL column must have no Max")
	}
	c, ok = db.ColStats("Item", 2)
	if !ok || c.Rows != 4 || c.NonNull != 0 || c.Distinct != 0 || c.HasBounds {
		t.Fatalf("all-NULL stats = %+v ok=%v, want ok with Rows=4 and zero keys", c, ok)
	}
	if got := c.EqRows(); got != 0 {
		t.Fatalf("all-NULL EqRows = %v, want 0", got)
	}

	// A tuple containing the all-NULL column: same story.
	cx := db.Index("Item", 1, 2)
	if cx == nil || cx.Distinct() != 0 || cx.NonNull() != 0 {
		t.Fatal("a tuple with an all-NULL key column must index zero rows")
	}
}

// TestColStatsMaintainedOnInsert verifies that Insert drops the sorted
// index the statistics are read from, that the next ColStats rebuilds it
// with the new row counted, and that costing a column builds no hash
// index.
func TestColStatsMaintainedOnInsert(t *testing.T) {
	db := statsDB(t)
	if c, _ := db.ColStats("Item", 1); c.NonNull != 3 {
		t.Fatalf("NonNull before insert = %d", c.NonNull)
	}
	if db.HasIndex("Item", 1) {
		t.Fatal("ColStats must not build a hash index")
	}
	db.MustInsert("Item", sqltypes.NewInt(5), sqltypes.NewText("c"), sqltypes.NewFloat(1))
	if db.HasSorted("Item", 1) {
		t.Fatal("insert must drop the stats-backing index")
	}
	c, _ := db.ColStats("Item", 1)
	if c.Rows != 5 || c.NonNull != 4 || c.Distinct != 3 || c.Max.Text() != "c" {
		t.Fatalf("stats after insert = %+v", c)
	}
	db.MustInsert("Item", sqltypes.NewInt(6), sqltypes.Null(), sqltypes.Null())
	c, _ = db.ColStats("Item", 1)
	if c.Rows != 6 || c.NonNull != 4 || c.Distinct != 3 {
		t.Fatalf("stats after NULL insert = %+v", c)
	}
	if db.HasIndex("Item", 1) {
		t.Fatal("ColStats alone must leave the hash index unbuilt")
	}
}

// statsConsistent recomputes the column's ground truth by scanning the
// relation and compares it against what ColStats derives from the indexes.
func statsConsistent(t *testing.T, db *Database, table string, col int) {
	t.Helper()
	rel := db.Table(table)
	c, ok := db.ColStats(table, col)
	if !ok {
		t.Fatalf("ColStats(%s, %d) not ok", table, col)
	}
	nonNull, distinct := 0, map[string]bool{}
	var minV, maxV sqltypes.Value
	for _, row := range rel.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		nonNull++
		key, _ := v.AppendCompareKey(nil)
		distinct[string(key)] = true
		if !minV.IsNull() && sqltypes.Compare(v, minV) < 0 || minV.IsNull() {
			minV = v
		}
		if !maxV.IsNull() && sqltypes.Compare(v, maxV) > 0 || maxV.IsNull() {
			maxV = v
		}
	}
	if c.Rows != len(rel.Rows) || c.NonNull != nonNull || c.Distinct != len(distinct) {
		t.Fatalf("%s.%d stats = %+v, ground truth rows=%d nonNull=%d distinct=%d",
			table, col, c, len(rel.Rows), nonNull, len(distinct))
	}
	if c.HasBounds != (nonNull > 0) {
		t.Fatalf("%s.%d HasBounds = %v with %d non-NULL rows", table, col, c.HasBounds, nonNull)
	}
	if c.HasBounds && (sqltypes.Compare(c.Min, minV) != 0 || sqltypes.Compare(c.Max, maxV) != 0) {
		t.Fatalf("%s.%d bounds = [%s, %s], ground truth [%s, %s]",
			table, col, c.Min, c.Max, minV, maxV)
	}
}

// TestStatsInterleavingProperty drives a seeded random interleaving of
// Insert, Mutate, Snapshot, and Clone and checks after every step that
// ColStats matches a fresh scan of the relation — on the live database, on
// every snapshot pinned so far (whose stats must stay frozen at their
// pinned contents), and on clones. Mirrors the lifecycle guarantees the
// index suite pins, but for the derived statistics.
func TestStatsInterleavingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := statsDB(t)
	var pinned []*Snapshot
	next := int64(100)
	for step := 0; step < 120; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			var tag, score sqltypes.Value
			if rng.Intn(4) > 0 {
				tag = sqltypes.NewText([]string{"a", "b", "c", "d"}[rng.Intn(4)])
			}
			if rng.Intn(3) > 0 {
				score = sqltypes.NewFloat(float64(rng.Intn(50)) / 2)
			}
			db.MustInsert("Item", sqltypes.NewInt(next), tag, score)
			next++
		case 2:
			delta := int64(rng.Intn(7))
			db.Mutate(func(table string, row sqltypes.Row) {
				if table == "item" && !row[0].IsNull() {
					row[0] = sqltypes.NewInt(row[0].Int() + delta)
				}
			})
		case 3:
			pinned = append(pinned, db.Snapshot())
			if len(pinned) > 4 {
				pinned = pinned[1:]
			}
		case 4:
			cp := db.Clone()
			cp.MustInsert("Item", sqltypes.NewInt(-next), sqltypes.NewText("clone"), sqltypes.Null())
			for col := 0; col < 3; col++ {
				statsConsistent(t, cp, "Item", col)
			}
		}
		for col := 0; col < 3; col++ {
			statsConsistent(t, db, "Item", col)
		}
		for _, sn := range pinned {
			for col := 0; col < 3; col++ {
				statsConsistent(t, sn.DB(), "Item", col)
			}
		}
	}
}

// TestStatsConcurrentReaders races ColStats against concurrent inserts on
// a snapshot-isolated reader: run under -race this gates the lazy sorted
// builds ColStats performs against the writer's maintenance.
func TestStatsConcurrentReaders(t *testing.T) {
	db := statsDB(t)
	snap := db.Snapshot()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The pinned snapshot's stats never move.
				if c, ok := snap.DB().ColStats("Item", 1); !ok || c.Rows != 4 || c.Distinct != 2 {
					t.Errorf("snapshot stats drifted: %+v ok=%v", c, ok)
					return
				}
				// The live database's stats are always internally sane.
				if c, ok := db.ColStats("Item", 0); !ok || c.Distinct > c.NonNull || c.NonNull > c.Rows {
					t.Errorf("live stats inconsistent: %+v ok=%v", c, ok)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 200; i++ {
		db.MustInsert("Item", sqltypes.NewInt(1000+i), sqltypes.NewText("w"), sqltypes.NewFloat(1))
	}
	close(stop)
	wg.Wait()
	if c, _ := db.ColStats("Item", 0); c.Rows != 204 {
		t.Fatalf("final rows = %d, want 204", c.Rows)
	}
}
