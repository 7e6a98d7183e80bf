package sqleval

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// tracedExec compiles stmt on a fresh executor and executes it runs times
// with one trace, as PlanTree does once; the trace accumulates actual rows
// per plan node across the runs.
func tracedExec(t *testing.T, db *storage.Database, stmt *sqlast.SelectStmt, perRow bool, runs int) (*program, *execTrace, *sqltypes.Relation) {
	t.Helper()
	ex := New(db)
	if perRow {
		ex = NewNestedLoop(db)
	}
	prog, err := ex.compiled(stmt)
	if err != nil {
		t.Fatal(err)
	}
	tr := newExecTrace(prog.nodes)
	var rel *sqltypes.Relation
	for i := 0; i < runs; i++ {
		e := newExecution(context.Background(), prog, newSlab())
		e.trace = tr
		if rel, err = ex.runProgram(e, prog, nil); err != nil {
			t.Fatal(err)
		}
	}
	return prog, tr, rel
}

// firstBaseScan is the first base-table scan of a program, looking
// through derived tables.
func firstBaseScan(p *program) *tableScan {
	ts := p.cores[0].scans[0]
	for ts.sub != nil {
		ts = ts.sub.cores[0].scans[0]
	}
	return ts
}

// TestSubqueryCorrelation classifies hand-written subqueries over the
// Fig 2 database (no dev gold query is correlated) and counts, through the
// exec trace, how many rows each subquery's first base scan produced: an
// uncorrelated subquery scans its table once per execution, a correlated
// one once per outer row. Every query must also return what the per-row
// nested-loop leg returns.
func TestSubqueryCorrelation(t *testing.T) {
	db := flightDB(t)
	const outer = 10 // Aircraft rows; Flight has 10 rows too
	for _, tc := range []struct {
		name string
		sql  string
		// Per subquery, in compile order: whether it is correlated, and how
		// many times one execution runs it.
		correlated []bool
		runs       []int
	}{
		{"in", "SELECT name FROM Aircraft WHERE aid IN (SELECT aid FROM Flight)",
			[]bool{false}, []int{1}},
		{"not in", "SELECT name FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight)",
			[]bool{false}, []int{1}},
		{"exists", "SELECT name FROM Aircraft WHERE EXISTS (SELECT 1 FROM Flight WHERE origin LIKE 'Chi%')",
			[]bool{false}, []int{1}},
		{"scalar", "SELECT name FROM Aircraft WHERE distance > (SELECT avg(distance) FROM Aircraft)",
			[]bool{false}, []int{1}},
		{"in union", "SELECT name FROM Aircraft WHERE aid IN (SELECT aid FROM Flight WHERE origin LIKE 'Chi%' UNION SELECT aid FROM Flight WHERE destination LIKE 'Hon%')",
			[]bool{false}, []int{1}},
		{"scalar in select list", "SELECT name, (SELECT count(*) FROM Flight) FROM Aircraft",
			[]bool{false}, []int{1}},
		{"correlated where", "SELECT name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid)",
			[]bool{true}, []int{outer}},
		{"correlated select list", "SELECT A.name FROM Aircraft AS A WHERE A.aid IN (SELECT A.aid FROM Flight AS F WHERE F.origin LIKE 'Chi%')",
			[]bool{true}, []int{outer}},
		{"correlated having", "SELECT A.name FROM Aircraft AS A WHERE EXISTS (SELECT F.origin FROM Flight AS F GROUP BY F.origin HAVING count(*) > A.aid)",
			[]bool{true}, []int{outer}},
		{"correlated derived table", "SELECT A.name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM (SELECT flno FROM Flight WHERE Flight.aid = A.aid) AS D)",
			[]bool{true}, []int{outer}},
		// The inner subquery names A two levels out: both are correlated,
		// and the inner one runs once per (A, F) pair.
		{"two levels out", "SELECT A.name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid IN (SELECT G.aid FROM Flight AS G WHERE G.aid = A.aid))",
			[]bool{true, true}, []int{outer * 10, outer}},
		// The inner subquery reads only its own table: it runs once per
		// execution although the correlated one enclosing it re-runs per
		// outer row.
		{"uncorrelated inside correlated", "SELECT A.name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid AND F.destination IN (SELECT origin FROM Flight))",
			[]bool{false, true}, []int{1, outer}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runBoth(t, db, tc.sql)
			stmt, err := sqlparse.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, nestedLoop := range []bool{false, true} {
				// Two executions of one cached plan: the memo lives for one
				// execution only, so the counts double.
				prog, tr, got := tracedExec(t, db, stmt, nestedLoop, 2)
				if !relEqual(got, want) {
					t.Fatalf("nestedLoop=%v: result diverged:\n%s\nwant:\n%s", nestedLoop, got, want)
				}
				if len(prog.subs) != len(tc.correlated) {
					t.Fatalf("compiled %d subqueries, want %d", len(prog.subs), len(tc.correlated))
				}
				slots := 0
				for i, sub := range prog.subs {
					// The per-row reference leg treats every subquery as
					// correlated.
					wantCorrelated := tc.correlated[i] || nestedLoop
					if got := sub.slot < 0; got != wantCorrelated {
						t.Errorf("nestedLoop=%v: subquery %d correlated=%v, want %v", nestedLoop, i, got, wantCorrelated)
					}
					if sub.slot >= 0 {
						slots++
					}
					if nestedLoop {
						continue
					}
					ts := firstBaseScan(sub.prog)
					if want, got := int64(2*tc.runs[i]*db.NumRows(ts.table)), tr.rowsAt(ts.id); got != want {
						t.Errorf("subquery %d scanned %d rows in 2 executions, want %d", i, got, want)
					}
				}
				if prog.slots != slots {
					t.Errorf("nestedLoop=%v: program has %d memo slots, want %d", nestedLoop, prog.slots, slots)
				}
			}
			// The per-row leg really re-runs an uncorrelated subquery per
			// outer row: it is the oracle the memo is checked against.
			if tc.name == "in" {
				prog, tr, _ := tracedExec(t, db, stmt, true, 1)
				ts := firstBaseScan(prog.subs[0].prog)
				if got := tr.rowsAt(ts.id); got != int64(outer*db.NumRows(ts.table)) {
					t.Errorf("per-row leg scanned %d rows, want %d", got, outer*db.NumRows(ts.table))
				}
			}
		})
	}
}

// TestSubqueryMemoConcurrent runs the memoised and correlated queries
// concurrently through one executor and one cached plan per statement:
// each execution owns its memo, so every result must equal the
// sequential one (run with -race).
func TestSubqueryMemoConcurrent(t *testing.T) {
	db := flightDB(t)
	sqls := []string{
		"SELECT name FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight)",
		"SELECT name, (SELECT max(distance) FROM Aircraft) FROM Aircraft WHERE EXISTS (SELECT 1 FROM Flight WHERE origin LIKE 'Chi%')",
		"SELECT A.name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid AND F.destination IN (SELECT origin FROM Flight))",
	}
	ex := New(db)
	stmts := make([]*sqlast.SelectStmt, len(sqls))
	want := make([]*sqltypes.Relation, len(sqls))
	for i, sql := range sqls {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = stmt
		if want[i], err = ex.ExecContext(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(stmts)
				got, err := ex.ExecContext(context.Background(), stmts[k])
				if err != nil {
					errs <- err.Error()
					return
				}
				if !relEqual(got, want[k]) {
					errs <- "concurrent result diverged for " + sqls[k]
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// membershipDB holds probes P.x and member groups M.k of mixed kinds,
// appended raw so no column affinity coerces them: INTEGER 1, REAL 1.0,
// text '1', NULL, a fraction, text and zero.
func membershipDB(t *testing.T) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "membership",
		Tables: []*schema.Table{
			{Name: "P", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "x", Type: sqltypes.KindInt},
			}},
			{Name: "M", Columns: []schema.Column{
				{Name: "g", Type: sqltypes.KindInt},
				{Name: "k", Type: sqltypes.KindInt},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	i, f, txt, null := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewText, sqltypes.Null()
	for id, x := range []sqltypes.Value{i(1), f(1), txt("1"), null, f(2.5), txt("a"), i(0)} {
		db.Table("P").Append(sqltypes.Row{i(int64(id + 1)), x})
	}
	for _, gk := range [][2]sqltypes.Value{
		{i(0), i(1)}, {i(0), null}, // an INTEGER member and a NULL member
		{i(1), f(1)},     // REAL only
		{i(2), txt("1")}, // numeric-looking text only
		{i(3), f(2.5)}, {i(3), txt("a")},
		{i(4), null}, // NULL only
	} {
		db.Table("M").Append(sqltypes.Row{gk[0], gk[1]})
	}
	return db
}

// TestSubqueryMembershipSemantics holds the hashed IN set to the per-row
// linear scan over every probe kind: NULL probes (also against an empty
// set), NULL members under IN and NOT IN, INTEGER against REAL, text
// against numeric, and NaN members and probes reached through Inf - Inf.
func TestSubqueryMembershipSemantics(t *testing.T) {
	db := membershipDB(t)
	const nan = "(1e308 * 10 - 1e308 * 10)"
	const nanOfX = "(x * 1e308 * 10 - x * 1e308 * 10)"
	for _, pred := range []string{
		"x IN (SELECT k FROM M WHERE g = 0)",
		"x NOT IN (SELECT k FROM M WHERE g = 0)",
		"x IN (SELECT k FROM M WHERE g = 99)",
		"x NOT IN (SELECT k FROM M WHERE g = 99)",
		"x IN (SELECT k FROM M WHERE g = 1)",
		"x IN (SELECT k FROM M WHERE g = 2)",
		"x NOT IN (SELECT k FROM M WHERE g = 3)",
		"x IN (SELECT k FROM M WHERE g = 4)",
		"x IN (SELECT " + nan + ")",
		"x NOT IN (SELECT k FROM M WHERE g = 2 UNION ALL SELECT " + nan + ")",
		nanOfX + " IN (SELECT k FROM M WHERE g = 3)",
		nanOfX + " IN (SELECT k FROM M WHERE g = 2)",
		nanOfX + " NOT IN (SELECT k FROM M WHERE g = 4)",
	} {
		runBoth(t, db, "SELECT id, "+pred+" FROM P")
		runBoth(t, db, "SELECT id FROM P WHERE "+pred)
	}
	for _, tc := range []struct {
		sql  string
		want sqltypes.Value
	}{
		// NULL IN (empty) stays NULL, as the per-row path has always had it.
		{"SELECT NULL IN (SELECT k FROM M WHERE g = 99)", sqltypes.Null()},
		{"SELECT 1 IN (SELECT 1.0)", sqltypes.NewBool(true)},
		{"SELECT 1.0 IN (SELECT k FROM M WHERE g = 0)", sqltypes.NewBool(true)},
		{"SELECT 2 IN (SELECT k FROM M WHERE g = 0)", sqltypes.Null()},
		{"SELECT 2 NOT IN (SELECT k FROM M WHERE g = 0)", sqltypes.Null()},
		{"SELECT '1' IN (SELECT 1)", sqltypes.NewBool(false)},
		{"SELECT 1 IN (SELECT k FROM M WHERE g = 2)", sqltypes.NewBool(false)},
		{"SELECT 7 IN (SELECT " + nan + ")", sqltypes.NewBool(true)},
		{"SELECT 'a' IN (SELECT " + nan + ")", sqltypes.NewBool(false)},
		{"SELECT " + nan + " IN (SELECT 7)", sqltypes.NewBool(true)},
		{"SELECT " + nan + " IN (SELECT 'a')", sqltypes.NewBool(false)},
	} {
		got := runBoth(t, db, tc.sql)
		if v := got.Rows[0][0]; v.Kind() != tc.want.Kind() || sqltypes.Compare(v, tc.want) != 0 {
			t.Errorf("%s = %v, want %v", tc.sql, v, tc.want)
		}
	}
}

// TestMemoizedSubqueryObservesCancellation pins the memo's cancellation
// contract: a filled slot still checks the context on every use, as the
// per-row path's runProgram entry check does, so a cancelled execution
// stops at the same outer row with or without the memo.
func TestMemoizedSubqueryObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rc := &rowCtx{execution: execution{qctx: ctx, memo: []subMemo{{done: true}}, depth: 1}}
	if _, err := New(nil).memoized(rc, nil, 0, fillExists); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	if _, err := New(nil).memoized(rc, nil, 0, fillExists); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from a filled slot, got %v", err)
	}
}
