package sqleval_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/plan"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
)

// TestExplainShowsCachedPlan requires EXPLAIN to show the plan the
// executor actually runs. After an execution caches a range probe's
// alternative (a filtered scan: flno > 0 keeps every row), 5,000 inserted
// rows with flno <= 0 would make a fresh compile choose the range probe;
// EXPLAIN on the same executor must still show, and count through, the
// cached filter over the full scan.
func TestExplainShowsCachedPlan(t *testing.T) {
	db := sqleval.BenchDB(t, 20, 20)
	stmt, err := sqlparse.Parse("SELECT flno FROM Flight WHERE flno > 0")
	if err != nil {
		t.Fatal(err)
	}
	ex := sqleval.New(db)
	if _, err := ex.ExecContext(context.Background(), stmt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		db.MustInsert("Flight", sqltypes.NewInt(int64(-i)), sqltypes.NewInt(1),
			sqltypes.NewText("Tokyo"), sqltypes.NewText("Boston"))
	}
	got, err := ex.ExplainPlan(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := `project (est=6.67 act=20)
└─ filter 1 conjuncts (est=? act=20)
   └─ scan flight (est=20 act=5020)
`
	if got != want {
		t.Errorf("EXPLAIN must show the cached filter over a 5020-row scan, got:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainCountsStreamedFilter requires the post-join filter of a core
// streamed off a sorted index to report the rows it kept: the walk stops
// after the LIMIT's three.
func TestExplainCountsStreamedFilter(t *testing.T) {
	db := datasets.Spider().DB("concert_hall")
	stmt, err := sqlparse.Parse("SELECT name FROM concert WHERE month <> 'May' ORDER BY attendance DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sqleval.New(db).ExplainPlan(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "stream ") || !strings.Contains(got, "filter 1 conjuncts (est=? act=3)") {
		t.Errorf("EXPLAIN must count the streamed core's filter, got:\n%s", got)
	}
}

// TestExplainCountsLimitStop requires EXPLAIN of a join stopped by LIMIT
// to report the pairs it actually visited: a three-table join under
// LIMIT 2 stops after its second output row, so its joins visit fewer
// pairs than the same join run to completion.
func TestExplainCountsLimitStop(t *testing.T) {
	db := sqleval.BenchDB(t, 50, 400)
	const join3 = "SELECT T1.flno, T2.name, T3.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid JOIN flight AS T3 ON T3.aid = T2.aid"
	pairs := func(sql string) (int64, string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := sqleval.New(db).PlanTree(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		var visit func(*plan.Node)
		visit = func(nd *plan.Node) {
			if nd.Kind == "join" {
				if nd.ActPairs < 0 {
					t.Fatalf("%s: join without a pair count:\n%s", sql, tree.Render())
				}
				n += nd.ActPairs
			}
			for _, c := range nd.Children {
				visit(c)
			}
		}
		visit(tree.Root)
		return n, tree.Render()
	}
	full, fullPlan := pairs(join3)
	limited, limitedPlan := pairs(join3 + " LIMIT 2")
	if limited <= 0 || limited >= full {
		t.Errorf("LIMIT 2 must visit fewer join pairs than the full join (%d), got %d:\n%s\nfull:\n%s", full, limited, limitedPlan, fullPlan)
	}
	if !strings.HasPrefix(limitedPlan, "project (est=") || !strings.Contains(limitedPlan, "act=2)") {
		t.Errorf("LIMIT 2 plan must report 2 output rows:\n%s", limitedPlan)
	}
}

// TestPlanTreeConcurrentWithExec runs EXPLAIN and plain executions of one
// join query concurrently on one executor (run with -race): the trace
// belongs to the traced execution, so neither side observes the other,
// and every EXPLAIN reports the same counts.
func TestPlanTreeConcurrentWithExec(t *testing.T) {
	db := sqleval.BenchDB(t, 50, 400)
	stmt, err := sqlparse.Parse("SELECT T1.flno, T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 2000")
	if err != nil {
		t.Fatal(err)
	}
	ex := sqleval.New(db)
	wantRel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, err := ex.ExplainPlan(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(explain bool) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if explain {
					got, err := ex.ExplainPlan(context.Background(), stmt)
					if err != nil || got != wantPlan {
						errs <- "concurrent EXPLAIN diverged:\n" + got
						return
					}
					continue
				}
				got, err := ex.ExecContext(context.Background(), stmt)
				if err != nil || !identical(got, wantRel) {
					errs <- "concurrent execution diverged"
					return
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
