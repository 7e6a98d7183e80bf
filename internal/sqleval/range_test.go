package sqleval

import (
	"context"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// TestRangeProbeParity runs range-eligible queries through all three
// access paths; the sorted-index span must be invisible in the results.
func TestRangeProbeParity(t *testing.T) {
	db := flightDB(t)
	for _, sql := range []string{
		// One-sided ranges, both strict and inclusive, both operand orders.
		"SELECT flno FROM Flight WHERE flno > 50",
		"SELECT flno FROM Flight WHERE flno >= 68",
		"SELECT name FROM Aircraft WHERE distance < 3000",
		"SELECT name FROM Aircraft WHERE 2000 <= distance",
		"SELECT name FROM Aircraft WHERE 3000 > distance",
		// Two one-sided conjuncts on one column merge into one span; a
		// third conjunct on the same column stays a filter.
		"SELECT flno FROM Flight WHERE flno > 10 AND flno < 300",
		"SELECT flno FROM Flight WHERE flno > 10 AND flno < 300 AND flno < 100",
		// BETWEEN, inverted BETWEEN (empty), NOT BETWEEN (filter only).
		"SELECT flno FROM Flight WHERE flno BETWEEN 13 AND 99",
		"SELECT flno FROM Flight WHERE flno BETWEEN 99 AND 13",
		"SELECT flno FROM Flight WHERE flno NOT BETWEEN 13 AND 99",
		// Bounds of a different kind than the column: a float bound on an
		// INTEGER column, a text bound (text sorts after every number), and
		// a NULL bound (never lowered; the filter rejects every row).
		"SELECT name FROM Aircraft WHERE aid > 2.5",
		"SELECT name FROM Aircraft WHERE aid < 'x'",
		"SELECT origin FROM Flight WHERE origin > 'C'",
		"SELECT flno FROM Flight WHERE flno < NULL",
		// Ranges mixed with point probes and residual filters.
		"SELECT flno FROM Flight WHERE origin = 'Los Angeles' AND flno > 30",
		"SELECT flno FROM Flight WHERE flno > 30 AND origin = 'Los Angeles'",
		// Ranges under joins: base-scan ranges compose with equi joins and
		// LEFT JOIN (base columns are never null-extended); a range on the
		// equi-join build side stays a residual so the build-side index is
		// still reused.
		"SELECT T1.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T1.flno > 50",
		"SELECT T1.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 2000",
		"SELECT T2.name, T1.flno FROM Aircraft AS T2 LEFT JOIN Flight AS T1 ON T1.aid = T2.aid WHERE T2.distance > 4000",
		"SELECT T2.name, T1.flno FROM Aircraft AS T2 LEFT JOIN Flight AS T1 ON T1.aid = T2.aid WHERE T1.flno > 50",
		// Range under grouping and ordering.
		"SELECT count(*) FROM Flight WHERE flno > 50",
		"SELECT origin, count(*) FROM Flight WHERE flno BETWEEN 10 AND 400 GROUP BY origin ORDER BY count(*) DESC, origin",
	} {
		runBoth(t, db, sql)
	}
}

// TestOrderByStreamParity covers the sorted-index ORDER BY fast path:
// single-key orderings over one base table, ascending and descending,
// with and without LIMIT/OFFSET, ties, residual filters, and same-column
// range probes — all bit-identical to the materialize-and-sort path.
func TestOrderByStreamParity(t *testing.T) {
	db := flightDB(t)
	for _, sql := range []string{
		"SELECT flno, origin FROM Flight ORDER BY flno",
		"SELECT flno, origin FROM Flight ORDER BY flno DESC",
		"SELECT flno, origin FROM Flight ORDER BY flno LIMIT 3",
		"SELECT flno, origin FROM Flight ORDER BY flno DESC LIMIT 3",
		"SELECT flno FROM Flight ORDER BY flno DESC LIMIT 3 OFFSET 2",
		"SELECT flno FROM Flight ORDER BY flno LIMIT 0",
		"SELECT flno FROM Flight ORDER BY flno LIMIT 100 OFFSET 8",
		// Ties: many flights share an origin; stable order must hold, and a
		// LIMIT cutting inside a tie run must cut identically.
		"SELECT origin, flno FROM Flight ORDER BY origin",
		"SELECT origin, flno FROM Flight ORDER BY origin DESC",
		"SELECT origin, flno FROM Flight ORDER BY origin LIMIT 4",
		"SELECT origin, flno FROM Flight ORDER BY origin DESC LIMIT 4",
		// The order key does not need to be projected.
		"SELECT name FROM Aircraft ORDER BY distance DESC LIMIT 2",
		// Residual filters stream too; same-column ranges restrict the walk.
		"SELECT flno FROM Flight WHERE origin = 'Los Angeles' AND destination = 'Honolulu' ORDER BY flno DESC",
		"SELECT flno FROM Flight WHERE flno > 30 ORDER BY flno LIMIT 3",
		"SELECT flno FROM Flight WHERE flno BETWEEN 10 AND 100 ORDER BY flno DESC LIMIT 2",
		"SELECT flno FROM Flight WHERE destination > 'D' ORDER BY flno LIMIT 4",
		// Not streamable — DISTINCT, aliases shadowing columns, positional
		// and computed keys, grouped orderings — must still agree.
		"SELECT DISTINCT origin FROM Flight ORDER BY origin LIMIT 3",
		"SELECT flno AS aid FROM Flight ORDER BY aid LIMIT 3",
		"SELECT flno, origin FROM Flight ORDER BY 1 DESC LIMIT 3",
		"SELECT flno FROM Flight ORDER BY flno + 0 LIMIT 3",
		"SELECT origin, count(*) FROM Flight GROUP BY origin ORDER BY origin LIMIT 3",
	} {
		runBoth(t, db, sql)
	}
	// OFFSET+LIMIT past the largest integer keeps every row after the
	// offset, streamed or sorted.
	n := runBoth(t, db, "SELECT flno FROM Flight").NumRows()
	for _, sql := range []string{
		"SELECT flno FROM Flight ORDER BY flno DESC LIMIT 9223372036854775807 OFFSET 2",
		"SELECT flno FROM Flight ORDER BY flno + 0 LIMIT 9223372036854775807 OFFSET 2",
	} {
		if got := runBoth(t, db, sql).NumRows(); got != n-2 {
			t.Errorf("%q returned %d rows, want %d", sql, got, n-2)
		}
	}
}

// TestCompositeJoinParity covers multi-key equi-joins — the shape whose
// build side is served by a hash index over the key-column tuple —
// including LEFT JOIN null extension, WHERE-derived keys, and three-key
// joins.
func TestCompositeJoinParity(t *testing.T) {
	db := flightDB(t)
	for _, sql := range []string{
		"SELECT T1.flno, T2.flno FROM Flight AS T1 JOIN Flight AS T2 ON T1.origin = T2.origin AND T1.destination = T2.destination",
		"SELECT T1.flno, T2.flno FROM Flight AS T1 JOIN Flight AS T2 ON T1.aid = T2.aid AND T1.origin = T2.origin",
		"SELECT T1.flno, T2.flno FROM Flight AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid AND T1.destination = T2.origin",
		"SELECT T1.flno, T2.flno FROM Flight AS T1 JOIN Flight AS T2 ON T1.aid = T2.aid AND T1.origin = T2.origin AND T1.destination = T2.destination",
		// Keys split between ON and pushed-down WHERE, and comma joins
		// whose keys all come from WHERE.
		"SELECT T1.flno, T2.flno FROM Flight AS T1 JOIN Flight AS T2 ON T1.origin = T2.origin WHERE T1.destination = T2.destination",
		"SELECT T1.flno, T2.flno FROM Flight AS T1, Flight AS T2 WHERE T1.origin = T2.origin AND T1.destination = T2.destination AND T1.flno < T2.flno",
		// Composite keys with a residual and a grouped projection on top.
		"SELECT T1.origin, count(*) FROM Flight AS T1 JOIN Flight AS T2 ON T1.origin = T2.origin AND T1.destination = T2.destination GROUP BY T1.origin ORDER BY count(*) DESC, T1.origin",
	} {
		runBoth(t, db, sql)
	}
	// NULL key columns: rows with NULLs must match nothing on either side,
	// exactly as the generic paths reject them.
	runBoth(t, nullPairDB(t), "SELECT L.tag, R.val FROM L JOIN R ON L.k1 = R.k1 AND L.k2 = R.k2")
	runBoth(t, nullPairDB(t), "SELECT L.tag, R.val FROM L LEFT JOIN R ON L.k1 = R.k1 AND L.k2 = R.k2")
}

// nullPairDB holds NULLs and duplicates in both key columns of both sides.
func nullPairDB(t testing.TB) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "nullpairs",
		Tables: []*schema.Table{
			{Name: "L", Columns: []schema.Column{
				{Name: "k1", Type: sqltypes.KindInt},
				{Name: "k2", Type: sqltypes.KindText},
				{Name: "tag", Type: sqltypes.KindText},
			}},
			{Name: "R", Columns: []schema.Column{
				{Name: "k1", Type: sqltypes.KindInt},
				{Name: "k2", Type: sqltypes.KindText},
				{Name: "val", Type: sqltypes.KindText},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	null := sqltypes.Null()
	txt := sqltypes.NewText
	i := sqltypes.NewInt
	db.MustInsert("L", i(1), txt("a"), txt("l1"))
	db.MustInsert("L", i(1), txt("a"), txt("l2"))
	db.MustInsert("L", i(1), null, txt("l3"))
	db.MustInsert("L", null, txt("a"), txt("l4"))
	db.MustInsert("L", i(2), txt("b"), txt("l5"))
	db.MustInsert("R", i(1), txt("a"), txt("r1"))
	db.MustInsert("R", null, txt("a"), txt("r2"))
	db.MustInsert("R", i(1), null, txt("r3"))
	db.MustInsert("R", i(2), txt("b"), txt("r4"))
	db.MustInsert("R", i(2), txt("b"), txt("r5"))
	return db
}

// TestStreamSeesInsertsAndMutations pins sorted-index maintenance end to
// end through a cached streaming plan: rows inserted after the index was
// built must appear at their ordered position, and mutated values must be
// re-sorted after invalidation.
func TestStreamSeesInsertsAndMutations(t *testing.T) {
	db := flightDB(t)
	stmt, err := sqlparse.Parse("SELECT flno FROM Flight ORDER BY flno DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	rel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].Int() != 387 {
		t.Fatalf("before insert: %v", rel.Rows)
	}
	db.MustInsert("Flight", sqltypes.NewInt(600), sqltypes.NewInt(2), sqltypes.NewText("Chicago"), sqltypes.NewText("Tokyo"))
	if rel, err = ex.ExecContext(context.Background(), stmt); err != nil || rel.Rows[0][0].Int() != 600 {
		t.Fatalf("stream missed the inserted row: %v, %v", rel, err)
	}
	db.Mutate(func(table string, row sqltypes.Row) {
		if table == "flight" && row[0].Int() == 600 {
			row[0] = sqltypes.NewInt(5)
		}
	})
	if rel, err = ex.ExecContext(context.Background(), stmt); err != nil || rel.Rows[0][0].Int() != 387 {
		t.Fatalf("stream read stale order after mutate: %v, %v", rel, err)
	}
}

// TestRangeSparesBuildSideReuse pins that a range conjunct on an
// equi-join build side stays a residual whether the join keys are spelled
// in ON or in WHERE: the build table's column index must be reused (and
// therefore built) rather than the scan pre-filtered into a per-execution
// hash rebuild.
func TestRangeSparesBuildSideReuse(t *testing.T) {
	for _, sql := range []string{
		"SELECT count(*) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 100",
		"SELECT count(*) FROM Flight AS T1, Aircraft AS T2 WHERE T1.aid = T2.aid AND T2.distance > 100",
		"SELECT count(*) FROM Flight AS T1, Aircraft AS T2 WHERE T2.distance > 100 AND T1.aid = T2.aid",
	} {
		db := flightDB(t)
		runBoth(t, db, sql)
		if !db.HasIndex("Aircraft", 0) {
			t.Fatalf("build-side column index not reused for %q: range probe pre-filtered the build scan", sql)
		}
	}
}

// TestRangeProbeSeesInserts pins the same maintenance contract for range
// probes on a cached plan.
func TestRangeProbeSeesInserts(t *testing.T) {
	db := flightDB(t)
	stmt, err := sqlparse.Parse("SELECT count(*) FROM Flight WHERE flno > 300")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	rel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.Rows[0][0].Int()
	db.MustInsert("Flight", sqltypes.NewInt(601), sqltypes.NewInt(2), sqltypes.NewText("Chicago"), sqltypes.NewText("Tokyo"))
	if rel, err = ex.ExecContext(context.Background(), stmt); err != nil || rel.Rows[0][0].Int() != want+1 {
		t.Fatalf("range probe missed the inserted row: %v, %v", rel, err)
	}
}
