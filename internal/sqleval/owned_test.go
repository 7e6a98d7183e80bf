package sqleval

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlparse"
)

// TestReleasePoisons: a released result's rows and values read poison in
// a test binary, and a relation from ExecContext, which is never
// recycled, is unchanged after 100 later owned and unowned executions on
// the same executor.
func TestReleasePoisons(t *testing.T) {
	ctx := context.Background()
	ex := New(benchDB(t, 20, 200))
	stmt := sqlparse.MustParse("SELECT T1.flno, T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T1.aid IN (SELECT aid FROM aircraft WHERE distance > 1000) ORDER BY T1.flno")
	kept, err := ex.ExecContext(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := kept.String()

	res, err := ex.Run(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Rel
	if rel.String() != want {
		t.Fatalf("owned result:\n%s\nwant:\n%s", rel, want)
	}
	rows := rel.Rows
	first := rows[0]
	res.Release()
	res.Release() // a second release is a no-op
	if res.Rel != nil {
		t.Fatal("a released Result still exposes its relation")
	}
	for i, row := range rows {
		if len(row) != 1 || row[0] != poison {
			t.Fatalf("row header %d after release = %v, want poison", i, row)
		}
	}
	for _, v := range first {
		if v != poison {
			t.Fatalf("value after release = %v, want poison", v)
		}
	}

	for i := 0; i < 100; i++ {
		res, err := ex.Run(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		if _, err := ex.ExecContext(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	if kept.String() != want {
		t.Fatalf("ExecContext result changed by later executions:\n%s\nwant:\n%s", kept, want)
	}
}

// TestOwnedResultAllocGate pins recycling: once warm, releasing a result
// and executing again reuses the released storage, so a scan, a
// three-table join, an IN (subquery) filter and a LIKE filter allocate
// nothing at 400 and at 4,000 flights (a result built in fresh storage
// costs a records slice growth and an arena chunk per 512 values, and an
// uncorrelated subquery as much again). LIKE lowers its literal pattern
// at compile time and folds ASCII values inside the matcher, and the join
// rebuilds its 39-row build side in the packed table its pooled sink
// keeps. Counted on one P (AllocsPerRun) with the collector off, which
// also keeps the pool from being emptied.
func TestOwnedResultAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name, sql string
	}{
		{"scan", "SELECT flno, origin, destination FROM flight"},
		{"three-table join", "SELECT T1.flno, T2.name, T3.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid JOIN flight AS T3 ON T3.aid = T2.aid WHERE T3.flno < 40"},
		{"IN (subquery)", "SELECT flno FROM flight WHERE aid IN (SELECT aid FROM flight WHERE flno > 10)"},
		{"LIKE", "SELECT flno FROM flight WHERE origin LIKE 'T%'"},
	} {
		stmt := sqlparse.MustParse(tc.sql)
		measure := func(flights int) (float64, int) {
			ex := New(benchDB(t, 50, flights))
			run := func() int {
				res, err := ex.Run(context.Background(), stmt)
				if err != nil {
					t.Fatal(err)
				}
				n := len(res.Rel.Rows)
				res.Release()
				return n
			}
			rows := run()
			return testing.AllocsPerRun(20, func() { run() }), rows
		}
		small, smallRows := measure(400)
		large, largeRows := measure(4000)
		if largeRows <= smallRows {
			t.Fatalf("%s: %d rows at 4000 flights vs %d at 400 — the case must scale", tc.name, largeRows, smallRows)
		}
		if large != 0 || small != 0 {
			t.Errorf("%s: a warm owned execution allocates %.0f/op at 4000 flights and %.0f/op at 400 — want 0", tc.name, large, small)
		}
		t.Logf("%s owned allocs/op: 400 flights=%.0f 4000 flights=%.0f", tc.name, small, large)
	}
}

// TestExecContextLeavesPool pins that ExecContext runs on a slab of its
// own: interleaved with warm Run/Release cycles of
// TestOwnedResultAllocGate's scan, it takes no warm slab from the pool, so
// each Run still allocates nothing. An ExecContext that took a pooled slab
// and never released it would leave the next Run to build one afresh.
// Each Run is counted alone, on one P with the collector off, since
// AllocsPerRun's warm-up run would refill the pool.
func TestExecContextLeavesPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	ex := New(benchDB(t, 50, 400))
	stmt := sqlparse.MustParse("SELECT flno, origin, destination FROM flight")
	run := func() {
		res, err := ex.Run(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run()
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		if _, err := ex.ExecContext(ctx, stmt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("round %d: a warm Run after ExecContext allocates %d times, want 0", i, n)
		}
	}
}

// TestOwnedConcurrent runs owned executions of a join, a grouped core
// with a correlated subquery and a compound from several goroutines on
// one executor, releasing each before the next, so slabs pass between
// goroutines through the pool. Every result must equal the statement's
// ExecContext result; under -race any sharing of a slab between two
// executions shows up as a race.
func TestOwnedConcurrent(t *testing.T) {
	ex := New(benchDB(t, 20, 200))
	ctx := context.Background()
	var stmts []*sqlast.SelectStmt
	var want []string
	for _, sql := range []string{
		"SELECT T1.flno, T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 1000",
		"SELECT T2.name, count(*) FROM aircraft AS T2 JOIN flight AS T1 ON T1.aid = T2.aid WHERE T1.flno IN (SELECT flno FROM flight AS F WHERE F.aid = T2.aid) GROUP BY T2.name",
		"SELECT origin FROM flight WHERE aid < 5 UNION SELECT destination FROM flight WHERE aid > 15 ORDER BY origin",
	} {
		stmt := sqlparse.MustParse(sql)
		rel, err := ex.ExecContext(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		stmts, want = append(stmts, stmt), append(want, rel.String())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (w + round) % len(stmts)
				res, err := ex.Run(ctx, stmts[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Rel.String(); got != want[i] {
					t.Errorf("worker %d round %d: owned result\n%s\nwant\n%s", w, round, got, want[i])
				}
				res.Release()
			}
		}()
	}
	wg.Wait()
}

// TestWarmSlabReuse runs a GROUP BY, a COUNT(DISTINCT ...), the three
// deduplicating set operations, IN and NOT IN subqueries, a DISTINCT and
// joins with filtered build sides back to back on one slab, released
// after each, forwards and then backwards, so every grouping, member and
// join table is reused by a statement whose keys overlap the last one's
// (the same cities and aircraft ids, met in another order). Each result
// must equal a fresh executor's, under the cost planner and with indexes
// off, where every join builds its table per execution. The nested-loop
// parity leg runs through the same tables, so parity between modes
// cannot catch a table that a reuse leaves stale; this test can.
func TestWarmSlabReuse(t *testing.T) {
	db := benchDB(t, 50, 400)
	ctx := context.Background()
	sqls := []string{
		"SELECT destination, count(*) FROM flight GROUP BY destination",
		"SELECT origin, count(*), min(flno) FROM flight WHERE aid > 10 GROUP BY origin",
		"SELECT aid, count(DISTINCT destination) FROM flight GROUP BY aid",
		"SELECT origin FROM flight WHERE flno < 100 UNION SELECT destination FROM flight WHERE flno > 300",
		"SELECT origin FROM flight WHERE flno < 100 INTERSECT SELECT destination FROM flight WHERE flno > 390",
		"SELECT destination FROM flight WHERE flno < 20 EXCEPT SELECT origin FROM flight WHERE flno > 396",
		"SELECT flno FROM flight WHERE aid IN (SELECT aid FROM aircraft WHERE distance > 3000)",
		"SELECT count(*) FROM aircraft WHERE aid NOT IN (SELECT aid FROM flight WHERE flno < 30)",
		"SELECT DISTINCT origin, destination FROM flight WHERE aid < 20",
		"SELECT T1.flno, T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 3000",
		"SELECT T2.name, T1.origin FROM aircraft AS T2 JOIN flight AS T1 ON T1.aid = T2.aid WHERE T1.flno < 60",
		"SELECT T1.flno, T3.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid JOIN flight AS T3 ON T3.aid = T2.aid WHERE T2.aid = 7 AND T3.flno > 200",
	}
	want := make([]string, len(sqls))
	stmts := make([]*sqlast.SelectStmt, len(sqls))
	for i, sql := range sqls {
		stmts[i] = sqlparse.MustParse(sql)
		rel, err := New(db).ExecContext(ctx, stmts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rel.String()
	}
	for _, mode := range []struct {
		name string
		ex   *Executor
	}{{"cost", New(db)}, {"index-free", NewIndexFree(db)}} {
		sl := newSlab()
		for round := range 4 {
			for k := range stmts {
				i := k
				if round%2 == 1 {
					i = len(stmts) - 1 - k
				}
				pl, err := mode.ex.Prepare(stmts[i])
				if err != nil {
					t.Fatal(err)
				}
				rel, err := mode.ex.exec(ctx, pl.prog, sl)
				if err != nil {
					t.Fatal(err)
				}
				if got := rel.String(); got != want[i] {
					t.Errorf("%s, round %d: %s on a warm slab:\n%s\nwant\n%s", mode.name, round, sqls[i], got, want[i])
				}
				sl.release()
			}
		}
	}
}

// BenchmarkExecJoin3Released is BenchmarkExecJoin3 through owned results,
// each released before the next execution.
func BenchmarkExecJoin3Released(b *testing.B) {
	db := benchDB(b, 50, 400)
	stmt := sqlparse.MustParse("SELECT T1.flno, T2.name, T3.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid JOIN flight AS T3 ON T3.aid = T2.aid WHERE T3.flno < 40")
	ex := New(db)
	b.ReportAllocs()
	for b.Loop() {
		res, err := ex.Run(context.Background(), stmt)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}
