package sqleval

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// relEqual reports exact relation identity: same columns, same rows, same
// order. Stricter than BagEqual on purpose — the hash and nested-loop join
// paths must emit identical relations, not merely equal bags.
func relEqual(a, b *sqltypes.Relation) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i, c := range a.Columns {
		if b.Columns[i] != c {
			return false
		}
	}
	for ri, row := range a.Rows {
		for ci, v := range row {
			if sqltypes.Compare(v, b.Rows[ri][ci]) != 0 {
				return false
			}
		}
	}
	return true
}

// runBoth executes sql through the indexed path, the index-free hash-join
// path, and the nested-loop fallback, and requires identical relations
// from all three.
func runBoth(t *testing.T, db *storage.Database, sql string) *sqltypes.Relation {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	indexed, err := New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("indexed path %q: %v", sql, err)
	}
	hash, err := NewIndexFree(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("hash path %q: %v", sql, err)
	}
	loop, err := NewNestedLoop(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("nested-loop path %q: %v", sql, err)
	}
	if !relEqual(indexed, hash) {
		t.Fatalf("index and scan paths diverge for %q:\nindexed:\n%s\nscan:\n%s", sql, indexed, hash)
	}
	if !relEqual(hash, loop) {
		t.Fatalf("join paths diverge for %q:\nhash:\n%s\nnested loop:\n%s", sql, hash, loop)
	}
	for _, leg := range []struct {
		ex   *Executor
		want *sqltypes.Relation
	}{{New(db), indexed}, {NewIndexFree(db), hash}, {NewNestedLoop(db), loop}} {
		ownedParity(t, leg.ex, stmt, leg.want)
	}
	return hash
}

// ownedParity requires an owned execution of stmt to return want, the
// same executor's ExecContext result, and then releases it. The slabs
// cycle through one pool across the whole suite, so a result built in
// recycled storage is checked against one built in fresh storage.
func ownedParity(t *testing.T, ex *Executor, stmt *sqlast.SelectStmt, want *sqltypes.Relation) {
	t.Helper()
	res, err := ex.Run(context.Background(), stmt)
	if err != nil {
		t.Fatalf("owned run %q: %v", stmt.SQL(), err)
	}
	if !relEqual(res.Rel, want) {
		t.Fatalf("owned and ExecContext results diverge for %q:\nowned:\n%s\nExecContext:\n%s", stmt.SQL(), res.Rel, want)
	}
	res.Release()
}

func TestJoinPathParity(t *testing.T) {
	db := flightDB(t)
	for _, sql := range []string{
		"SELECT T1.flno, T2.name FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid",
		"SELECT T1.flno, T2.name FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 2000",
		"SELECT T1.flno FROM Flight AS T1, Aircraft AS T2 WHERE T1.aid = T2.aid AND T2.name LIKE 'Boeing%'",
		"SELECT T1.name, T2.flno FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid",
		"SELECT T1.name, T2.flno FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T2.flno IS NULL",
		"SELECT T2.name, count(*) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid GROUP BY T2.name ORDER BY count(*) DESC, T2.name",
		"SELECT A.name, F.origin, G.destination FROM Aircraft AS A JOIN Flight AS F ON A.aid = F.aid JOIN Flight AS G ON F.aid = G.aid ORDER BY A.name, F.origin, G.destination",
	} {
		runBoth(t, db, sql)
	}
}

// TestJoinEquiVsInequalityPair checks that the equi predicate and its
// nested-loop-only equivalent (a <= b AND a >= b never extracts a key)
// produce the same relation.
func TestJoinEquiVsInequalityPair(t *testing.T) {
	db := flightDB(t)
	eq := run(t, db, "SELECT T1.flno, T2.name FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid ORDER BY T1.flno")
	ineq := run(t, db, "SELECT T1.flno, T2.name FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid <= T2.aid AND T1.aid >= T2.aid ORDER BY T1.flno")
	if !relEqual(eq, ineq) {
		t.Fatalf("equi and inequality-pair joins diverge:\n%s\nvs\n%s", eq, ineq)
	}
}

// dupDB builds a database whose left table holds duplicate-valued rows, so
// any value-keyed (rather than index-keyed) LEFT JOIN bookkeeping would
// conflate distinct rows.
func dupDB(t testing.TB) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "dupes",
		Tables: []*schema.Table{
			{Name: "L", Columns: []schema.Column{
				{Name: "k", Type: sqltypes.KindInt},
				{Name: "tag", Type: sqltypes.KindText},
			}},
			{Name: "R", Columns: []schema.Column{
				{Name: "k", Type: sqltypes.KindInt},
				{Name: "val", Type: sqltypes.KindText},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	// Two identical rows (1, "x"), one row with a partner, one without.
	db.MustInsert("L", sqltypes.NewInt(1), sqltypes.NewText("x"))
	db.MustInsert("L", sqltypes.NewInt(1), sqltypes.NewText("x"))
	db.MustInsert("L", sqltypes.NewInt(2), sqltypes.NewText("y"))
	db.MustInsert("L", sqltypes.NewInt(3), sqltypes.NewText("z"))
	db.MustInsert("R", sqltypes.NewInt(1), sqltypes.NewText("a"))
	db.MustInsert("R", sqltypes.NewInt(2), sqltypes.NewText("b"))
	return db
}

func TestLeftJoinDuplicateValuedRows(t *testing.T) {
	db := dupDB(t)
	rel := runBoth(t, db, "SELECT L.k, L.tag, R.val FROM L LEFT JOIN R ON L.k = R.k")
	// Both (1, x) duplicates match R once each, (2, y) matches once,
	// (3, z) is null-extended: four rows total, duplicates preserved.
	if rel.NumRows() != 4 {
		t.Fatalf("left join with duplicates: want 4 rows, got:\n%s", rel)
	}
	ones := 0
	for _, row := range rel.Rows {
		if row[0].Int() == 1 && row[2].Text() == "a" {
			ones++
		}
	}
	if ones != 2 {
		t.Fatalf("duplicate left rows must each keep their match, got %d:\n%s", ones, rel)
	}
	nulls := 0
	for _, row := range rel.Rows {
		if row[2].IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Fatalf("exactly the unmatched row must be null-extended, got %d:\n%s", nulls, rel)
	}
}

// TestMultiJoinOffsetResolution verifies compiled column coordinates in a
// three-way self-join where every table shares column names, so any offset
// mix-up surfaces as wrong values rather than an error.
func TestMultiJoinOffsetResolution(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, `SELECT F1.flno, F2.flno, A.name
		FROM Flight AS F1 JOIN Flight AS F2 ON F1.aid = F2.aid JOIN Aircraft AS A ON F1.aid = A.aid
		WHERE F1.flno < F2.flno ORDER BY F1.flno, F2.flno`)
	// Aircraft 3 flies flights 7 and 13; aircraft 9 flies flights 2 and 76.
	if rel.NumRows() != 2 {
		t.Fatalf("self-join pairs: want 2 rows, got:\n%s", rel)
	}
	if rel.Rows[0][0].Int() != 2 || rel.Rows[0][1].Int() != 76 || rel.Rows[0][2].Text() != "Lockheed L1011" {
		t.Fatalf("offset resolution wrong: %v", rel.Rows[0])
	}
	if rel.Rows[1][0].Int() != 7 || rel.Rows[1][1].Int() != 13 || rel.Rows[1][2].Text() != "Airbus A340-300" {
		t.Fatalf("offset resolution wrong: %v", rel.Rows[1])
	}
	// The unqualified spelling must bind the first table that declares the
	// column (Flight.aid via F1), exactly like the legacy lookup order.
	v := single(t, db, "SELECT count(*) FROM Flight AS F1 JOIN Aircraft AS A ON F1.aid = A.aid WHERE aid = 3")
	if v.Int() != 2 {
		t.Fatalf("unqualified aid must bind F1: %v", v)
	}
}

// TestWherePushdownSemantics pins the LEFT JOIN guard: a WHERE filter on
// the right table must apply after null extension, never inside the join.
func TestWherePushdownSemantics(t *testing.T) {
	db := flightDB(t)
	// Without the guard, pushing origin='Chicago' into the join would
	// null-extend every aircraft that has non-Chicago flights too.
	rel := runBoth(t, db, "SELECT T1.name FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T2.origin = 'Chicago' ORDER BY T1.name")
	if rel.NumRows() != 2 {
		t.Fatalf("post-join filter: want 2 rows, got:\n%s", rel)
	}
	// Inner joins do push: same query with JOIN must agree with the
	// nested-loop path (runBoth) and keep only Chicago departures.
	rel = runBoth(t, db, "SELECT T1.name FROM Aircraft AS T1 JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T2.origin = 'Chicago' ORDER BY T2.flno")
	if rel.NumRows() != 2 || rel.Rows[0][0].Text() != "Boeing 757-300" {
		t.Fatalf("pushed filter: got:\n%s", rel)
	}
}

// TestOrderByAliasAfterStar pins the alias→column mapping through star
// expansion: ORDER BY an AS name must sort by the aliased expression even
// when a * item precedes it in the projection.
func TestOrderByAliasAfterStar(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT *, distance / 1000 AS kd FROM Aircraft ORDER BY kd DESC LIMIT 1")
	if rel.NumCols() != 4 {
		t.Fatalf("columns: %v", rel.Columns)
	}
	if rel.Rows[0][1].Text() != "Boeing 747-400" || rel.Rows[0][3].Int() != 8 {
		t.Fatalf("alias after star must sort by the aliased expression: %v", rel.Rows[0])
	}
}

// TestHashJoinLargeNumericKeys pins Compare-consistent key encoding: an
// INTEGER at 1e15 must equi-match a REAL 1e15 on the hash path exactly as
// the = operator (and the nested-loop path) matches it.
func TestHashJoinLargeNumericKeys(t *testing.T) {
	s := &schema.Schema{
		Name: "big",
		Tables: []*schema.Table{
			{Name: "A", Columns: []schema.Column{{Name: "k", Type: sqltypes.KindInt}}},
			{Name: "B", Columns: []schema.Column{{Name: "k", Type: sqltypes.KindFloat}}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	db.MustInsert("A", sqltypes.NewInt(1_000_000_000_000_000))
	db.MustInsert("A", sqltypes.NewInt(7))
	db.MustInsert("B", sqltypes.NewFloat(1e15))
	db.MustInsert("B", sqltypes.NewFloat(7))
	rel := runBoth(t, db, "SELECT A.k, B.k FROM A JOIN B ON A.k = B.k ORDER BY 1")
	if rel.NumRows() != 2 {
		t.Fatalf("large numeric equi-keys must match as = does, got:\n%s", rel)
	}
}

// TestCompiledPlanCacheReuse pins that re-executing the same statement
// through one executor reuses its plan and stays correct as data changes.
func TestCompiledPlanCacheReuse(t *testing.T) {
	db := flightDB(t)
	stmt, err := sqlparse.Parse("SELECT count(*) FROM Flight WHERE origin = 'Chicago'")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	rel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].Int() != 2 {
		t.Fatalf("before insert: %v", rel.Rows)
	}
	if len(ex.plans) != 1 {
		t.Fatalf("plan not cached: %d entries", len(ex.plans))
	}
	db.MustInsert("Flight", sqltypes.NewInt(500), sqltypes.NewInt(1), sqltypes.NewText("Chicago"), sqltypes.NewText("Boston"))
	rel, err = ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].Int() != 3 {
		t.Fatalf("cached plan must see inserted rows: %v", rel.Rows)
	}
}

// TestPlanCacheDoesNotPinASTs: the plan cache keeps one program per
// canonical statement, so once a second parse of a cached statement has
// run and its result is released, nothing the executor holds reaches
// that AST and the collector frees it.
func TestPlanCacheDoesNotPinASTs(t *testing.T) {
	const sql = "SELECT flno FROM Flight WHERE origin = 'Chicago'"
	ctx := context.Background()
	ex := New(flightDB(t))
	if _, err := ex.ExecContext(ctx, sqlparse.MustParse(sql)); err != nil {
		t.Fatal(err)
	}
	again := func() weak.Pointer[sqlast.SelectStmt] {
		stmt := sqlparse.MustParse(sql)
		res, err := ex.Run(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		return weak.Make(stmt)
	}()
	runtime.GC()
	runtime.GC()
	if again.Value() != nil {
		t.Fatal("the executor still reaches an executed AST whose plan was already cached")
	}
	runtime.KeepAlive(ex)
}
