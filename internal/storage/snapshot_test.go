package storage

import (
	"fmt"
	"sync"
	"testing"

	"cyclesql/internal/sqltypes"
)

func petRow(id int64, name string, weight float64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewText(name), sqltypes.NewFloat(weight)}
}

func seedPets(db *Database, n int) {
	for i := 0; i < n; i++ {
		db.MustInsert("Pet", sqltypes.NewInt(int64(i)), sqltypes.NewText(fmt.Sprintf("pet-%d", i)), sqltypes.NewFloat(float64(i)))
	}
}

func TestSnapshotPinsRowsAgainstInsert(t *testing.T) {
	db := testDB()
	seedPets(db, 4)
	snap := db.Snapshot()
	if got := snap.NumRows("Pet"); got != 4 {
		t.Fatalf("snapshot rows = %d, want 4", got)
	}
	if err := db.Insert("Pet", petRow(99, "late", 1)); err != nil {
		t.Fatal(err)
	}
	if got := db.NumRows("Pet"); got != 5 {
		t.Fatalf("live rows = %d, want 5", got)
	}
	if got := snap.NumRows("Pet"); got != 4 {
		t.Fatalf("snapshot perturbed by insert: rows = %d, want 4", got)
	}
	// The snapshot's relation pointer is the pre-write one; the live
	// store swapped in a copy on first write.
	if snap.Table("Pet") == db.Table("Pet") {
		t.Fatal("insert did not copy-on-write the shared table")
	}
}

func TestSnapshotPinsValuesAgainstMutate(t *testing.T) {
	db := testDB()
	seedPets(db, 4)
	snap := db.Snapshot()
	db.Mutate(func(table string, row sqltypes.Row) {
		row[1] = sqltypes.NewText("rewritten")
	})
	for i, row := range snap.Table("Pet").Rows {
		if row[1].Text() != fmt.Sprintf("pet-%d", i) {
			t.Fatalf("snapshot row %d perturbed by mutate: %v", i, row[1])
		}
	}
	if db.Table("Pet").Rows[0][1].Text() != "rewritten" {
		t.Fatal("mutate lost on the live store")
	}
}

func TestSnapshotSharesBuiltIndexes(t *testing.T) {
	db := testDB()
	seedPets(db, 8)
	live := db.Index("Pet", 0)
	if live == nil {
		t.Fatal("no index built")
	}
	snap := db.Snapshot()
	if got := snap.DB().Index("Pet", 0); got != live {
		t.Fatal("snapshot should share the pre-built index object")
	}
	// A write drops the live store's reference (the object is shared with
	// the view) but the snapshot keeps probing the pinned one.
	if err := db.Insert("Pet", petRow(99, "late", 1)); err != nil {
		t.Fatal(err)
	}
	if db.HasIndex("Pet", 0) {
		t.Fatal("live index must be dropped on copy-on-write")
	}
	if got := snap.DB().Index("Pet", 0); got != live {
		t.Fatal("snapshot lost its pinned index")
	}
	key, _ := sqltypes.NewInt(3).AppendCompareKey(nil)
	if rows := snap.DB().Index("Pet", 0).Lookup(key); len(rows) != 1 {
		t.Fatalf("pinned index lookup = %v rows, want 1", rows)
	}
	// The live store rebuilds lazily and sees the new row.
	key99, _ := sqltypes.NewInt(99).AppendCompareKey(nil)
	if rows := db.Index("Pet", 0).Lookup(key99); len(rows) != 1 {
		t.Fatalf("rebuilt live index missing new row: %v", rows)
	}
}

// TestSnapshotLazyIndexesStayApart pins the copied per-table index set:
// after the pin, the view and the live store each lazily build an index
// the other never built, and neither may appear in the other's set. The
// live set holds three indexes first, so its slice has spare capacity a
// shared backing array would let both sides append into.
func TestSnapshotLazyIndexesStayApart(t *testing.T) {
	db := testDB()
	seedPets(db, 8)
	for col := 0; col < 3; col++ {
		db.Index("Pet", col)
	}
	view := db.Snapshot().DB()
	view.Index("Pet", 0, 1)
	db.Index("Pet", 1, 2)
	if !view.HasIndex("Pet", 0, 1) || view.HasIndex("Pet", 1, 2) {
		t.Fatal("the view's set must hold its own build and not the live store's")
	}
	if !db.HasIndex("Pet", 1, 2) || db.HasIndex("Pet", 0, 1) {
		t.Fatal("the live set must hold its own build and not the view's")
	}
	for col := 0; col < 3; col++ {
		if !view.HasIndex("Pet", col) || !db.HasIndex("Pet", col) {
			t.Fatalf("pre-pin index on column %d lost", col)
		}
	}
}

func TestSnapshotEpochAdvances(t *testing.T) {
	db := testDB()
	seedPets(db, 2)
	s1 := db.Snapshot()
	if db.Epoch() != s1.Epoch() {
		t.Fatalf("fresh snapshot stale: db=%d snap=%d", db.Epoch(), s1.Epoch())
	}
	if err := db.Insert("Pet", petRow(50, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() == s1.Epoch() {
		t.Fatal("write did not advance the epoch")
	}
	s2 := db.Snapshot()
	if s2.Epoch() <= s1.Epoch() {
		t.Fatalf("epochs not monotone: %d then %d", s1.Epoch(), s2.Epoch())
	}
	db.Mutate(func(string, sqltypes.Row) {})
	if db.Epoch() == s2.Epoch() {
		t.Fatal("mutate did not advance the epoch")
	}
}

func TestSnapshotWriteOnlyCopiesOnce(t *testing.T) {
	db := testDB()
	seedPets(db, 4)
	_ = db.Snapshot()
	if err := db.Insert("Pet", petRow(90, "a", 1)); err != nil {
		t.Fatal(err)
	}
	owned := db.Table("Pet")
	// Second write to the now-owned table appends in place, and drops a
	// freshly built index like every write does.
	db.Index("Pet", 0)
	if err := db.Insert("Pet", petRow(91, "b", 1)); err != nil {
		t.Fatal(err)
	}
	if db.Table("Pet") != owned {
		t.Fatal("second write copied again; copy-on-write must be per snapshot generation")
	}
	if db.HasIndex("Pet", 0) {
		t.Fatal("second write must drop the owned table's index")
	}
	key, _ := sqltypes.NewInt(91).AppendCompareKey(nil)
	if rows := db.Index("Pet", 0).Lookup(key); len(rows) != 1 {
		t.Fatalf("rebuilt index misses the second write: %v", rows)
	}
}

func TestSnapshotViewRejectsWrites(t *testing.T) {
	db := testDB()
	seedPets(db, 2)
	view := db.Snapshot().DB()
	if err := view.Insert("Pet", petRow(7, "x", 1)); err == nil {
		t.Fatal("insert into a snapshot view must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutate on a snapshot view must panic")
		}
	}()
	view.Mutate(func(string, sqltypes.Row) {})
}

func TestSnapshotOfSnapshotIsSameView(t *testing.T) {
	db := testDB()
	seedPets(db, 2)
	s1 := db.Snapshot()
	s2 := s1.DB().Snapshot()
	if s2.DB() != s1.DB() {
		t.Fatal("snapshotting a frozen view should return the view itself")
	}
}

// TestSnapshotOrigin pins the lineage the warm executor and explainer
// caches key views by: every view of a store names that store as its
// origin, with epochs rising from view to view, and a database that is
// not a view (the store itself, a clone of a view) has none.
func TestSnapshotOrigin(t *testing.T) {
	db := testDB()
	seedPets(db, 2)
	if db.Origin() != nil {
		t.Fatal("a live store is not a view and has no origin")
	}
	s1 := db.Snapshot()
	db.Mutate(func(string, sqltypes.Row) {})
	s2 := db.Snapshot()
	for _, s := range []*Snapshot{s1, s2, s1.DB().Snapshot()} {
		if s.DB().Origin() != db {
			t.Fatalf("view at epoch %d does not name its live store as origin", s.Epoch())
		}
		if s.DB().Epoch() != s.Epoch() {
			t.Fatalf("view epoch %d differs from its snapshot's %d", s.DB().Epoch(), s.Epoch())
		}
	}
	if s2.DB().Epoch() <= s1.DB().Epoch() {
		t.Fatalf("view epochs not monotone: %d then %d", s1.DB().Epoch(), s2.DB().Epoch())
	}
	if s1.DB().Clone().Origin() != nil {
		t.Fatal("a clone of a view is an ordinary database and has no origin")
	}
}

func TestSnapshotCloneIsMutable(t *testing.T) {
	// The test-suite distillation clones a pinned snapshot and perturbs
	// the clone; neither the snapshot nor the live store may move.
	db := testDB()
	seedPets(db, 4)
	snap := db.Snapshot()
	clone := snap.DB().Clone()
	clone.Mutate(func(table string, row sqltypes.Row) {
		row[1] = sqltypes.NewText("perturbed")
	})
	if err := clone.Insert("Pet", petRow(77, "new", 2)); err != nil {
		t.Fatalf("clone of a view must be writable: %v", err)
	}
	if snap.Table("Pet").Rows[0][1].Text() != "pet-0" {
		t.Fatal("clone mutation leaked into the snapshot")
	}
	if db.Table("Pet").Rows[0][1].Text() != "pet-0" {
		t.Fatal("clone mutation leaked into the live store")
	}
}

// TestSnapshotIsolationUnderConcurrentWriters is the -race isolation
// stress the serving layer depends on: any number of goroutines read
// through pinned snapshots while writers insert and mutate the live
// store, and every snapshot observes exactly the state it pinned.
func TestSnapshotIsolationUnderConcurrentWriters(t *testing.T) {
	db := testDB()
	const seedRows = 32
	seedPets(db, seedRows)

	type pin struct {
		snap *Snapshot
		rows int
	}
	const (
		writers   = 2
		readers   = 4
		writeOps  = 200
		readLoops = 400
	)
	// Pins are taken concurrently with the writers; each records the row
	// count observed at pin time and must observe it forever after.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writeOps; i++ {
				if i%16 == 15 {
					db.Mutate(func(table string, row sqltypes.Row) {
						row[2] = sqltypes.NewFloat(row[2].Float() + 1)
					})
					continue
				}
				if err := db.Insert("Pet", petRow(int64(1000+w*writeOps+i), "w", 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readLoops; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := pin{snap: db.Snapshot()}
				p.rows = p.snap.NumRows("Pet")
				// Re-read the pinned view several times, interleaved with
				// the writers' progress, probing both rows and an index.
				for j := 0; j < 5; j++ {
					if got := p.snap.NumRows("Pet"); got != p.rows {
						t.Errorf("snapshot row count moved: %d -> %d", p.rows, got)
						return
					}
					ix := p.snap.DB().Index("Pet", 0)
					key, _ := sqltypes.NewInt(3).AppendCompareKey(nil)
					if rows := ix.Lookup(key); len(rows) != 1 {
						t.Errorf("pinned index lookup = %d rows, want 1", len(rows))
						return
					}
					for _, row := range p.snap.Table("Pet").Rows[:seedRows] {
						if row[1].Text() == "" {
							t.Error("torn row observed through snapshot")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)

	// All writers done: a fresh snapshot sees every surviving insert.
	want := seedRows + writers*writeOps - writers*(writeOps/16)
	if got := db.Snapshot().NumRows("Pet"); got != want {
		t.Fatalf("final snapshot rows = %d, want %d", got, want)
	}
}

// BenchmarkSnapshotPin and BenchmarkClonePin record the acceptance
// criterion that pinning a consistent view is O(tables), not O(rows):
// Snapshot cost must not grow with row count while Clone's does.
func benchPinDB(rows int) *Database {
	db := testDB()
	seedPets(db, rows)
	return db
}

func BenchmarkSnapshotPin(b *testing.B) {
	for _, rows := range []int{100, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := benchPinDB(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if db.Snapshot() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
	}
}

func BenchmarkClonePin(b *testing.B) {
	for _, rows := range []int{100, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := benchPinDB(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if db.Clone() == nil {
					b.Fatal("nil clone")
				}
			}
		})
	}
}

// BenchmarkSnapshotFirstWrite prices the deferred half of the COW deal:
// the first insert after a snapshot copies the row-header slice once;
// subsequent inserts are plain appends.
func BenchmarkSnapshotFirstWrite(b *testing.B) {
	db := benchPinDB(10000)
	row := petRow(999999, "w", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Snapshot()
		if err := db.Insert("Pet", row); err != nil {
			b.Fatal(err)
		}
	}
}
