package sqleval

import (
	"context"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// flightDB builds the paper's Fig 2 database: Aircraft and Flight.
func flightDB(t testing.TB) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "flight_2",
		Tables: []*schema.Table{
			{Name: "Aircraft", Columns: []schema.Column{
				{Name: "aid", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "name", Type: sqltypes.KindText},
				{Name: "distance", Type: sqltypes.KindInt},
			}},
			{Name: "Flight", Columns: []schema.Column{
				{Name: "flno", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "aid", Type: sqltypes.KindInt},
				{Name: "origin", Type: sqltypes.KindText},
				{Name: "destination", Type: sqltypes.KindText},
			}},
		},
		ForeignKeys: []schema.ForeignKey{{Table: "Flight", Column: "aid", RefTable: "Aircraft", RefColumn: "aid"}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	type a struct {
		aid  int64
		name string
		dist int64
	}
	for _, r := range []a{
		{1, "Boeing 747-400", 8430}, {2, "Boeing 737-800", 3383},
		{3, "Airbus A340-300", 7120}, {4, "British Aerospace Jetstream 41", 1502},
		{5, "Embraer ERJ-145", 1530}, {6, "SAAB 340", 2128},
		{7, "Piper Archer III", 520}, {8, "Tupolev 154", 4103},
		{9, "Lockheed L1011", 6900}, {10, "Boeing 757-300", 4010},
	} {
		db.MustInsert("Aircraft", sqltypes.NewInt(r.aid), sqltypes.NewText(r.name), sqltypes.NewInt(r.dist))
	}
	type f struct {
		flno, aid    int64
		origin, dest string
	}
	for _, r := range []f{
		{2, 9, "Los Angeles", "Tokyo"}, {7, 3, "Los Angeles", "Sydney"},
		{13, 3, "Los Angeles", "Chicago"}, {68, 10, "Chicago", "New York"},
		{76, 9, "Chicago", "Los Angeles"}, {33, 7, "Los Angeles", "Honolulu"},
		{34, 5, "Los Angeles", "Honolulu"}, {99, 1, "Los Angeles", "Washington D.C."},
		{346, 2, "Los Angeles", "Dallas"}, {387, 6, "Los Angeles", "Boston"},
	} {
		db.MustInsert("Flight", sqltypes.NewInt(r.flno), sqltypes.NewInt(r.aid), sqltypes.NewText(r.origin), sqltypes.NewText(r.dest))
	}
	return db
}

func run(t testing.TB, db *storage.Database, sql string) *sqltypes.Relation {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	rel, err := New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return rel
}

func single(t testing.TB, db *storage.Database, sql string) sqltypes.Value {
	t.Helper()
	rel := run(t, db, sql)
	if rel.NumRows() != 1 || rel.NumCols() != 1 {
		t.Fatalf("%q: expected scalar, got %dx%d:\n%s", sql, rel.NumRows(), rel.NumCols(), rel)
	}
	return rel.Rows[0][0]
}

func TestExecPaperMotivatingQuery(t *testing.T) {
	db := flightDB(t)
	// The erroneous translation from Fig 2: count instead of listing.
	v := single(t, db, "SELECT count(*) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	if v.Int() != 2 {
		t.Fatalf("count = %v, want 2", v)
	}
	// The intended query: flight numbers of that aircraft.
	rel := run(t, db, "SELECT T1.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	if rel.NumRows() != 2 {
		t.Fatalf("flight numbers: %v", rel.Rows)
	}
}

func TestExecSimpleFilters(t *testing.T) {
	db := flightDB(t)
	if v := single(t, db, "SELECT count(*) FROM Flight WHERE origin = 'Los Angeles'"); v.Int() != 8 {
		t.Fatalf("LA flights = %v", v)
	}
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE distance > 5000"); v.Int() != 3 {
		t.Fatalf("long range = %v", v)
	}
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE distance BETWEEN 1500 AND 2200"); v.Int() != 3 {
		t.Fatalf("between = %v", v)
	}
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE name LIKE 'Boeing%'"); v.Int() != 3 {
		t.Fatalf("like = %v", v)
	}
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE name NOT LIKE 'Boeing%'"); v.Int() != 7 {
		t.Fatalf("not like = %v", v)
	}
}

func TestExecAggregates(t *testing.T) {
	db := flightDB(t)
	if v := single(t, db, "SELECT max(distance) FROM Aircraft"); v.Int() != 8430 {
		t.Fatalf("max = %v", v)
	}
	if v := single(t, db, "SELECT min(distance) FROM Aircraft"); v.Int() != 520 {
		t.Fatalf("min = %v", v)
	}
	if v := single(t, db, "SELECT sum(distance) FROM Aircraft WHERE name LIKE 'Boeing%'"); v.Int() != 8430+3383+4010 {
		t.Fatalf("sum = %v", v)
	}
	v := single(t, db, "SELECT avg(distance) FROM Aircraft WHERE aid <= 2")
	if f, _ := v.AsFloat(); f != (8430+3383)/2.0 {
		t.Fatalf("avg = %v", v)
	}
	if v := single(t, db, "SELECT count(DISTINCT origin) FROM Flight"); v.Int() != 2 {
		t.Fatalf("distinct origins = %v", v)
	}
}

func TestExecGroupByHaving(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT aid, count(*) FROM Flight GROUP BY aid HAVING count(*) > 1")
	if rel.NumRows() != 2 { // aid 3 and aid 9 both fly twice
		t.Fatalf("groups: %v", rel.Rows)
	}
	rel = run(t, db, "SELECT origin, count(*) FROM Flight GROUP BY origin ORDER BY count(*) DESC LIMIT 1")
	if rel.Rows[0][0].Text() != "Los Angeles" || rel.Rows[0][1].Int() != 8 {
		t.Fatalf("argmax group: %v", rel.Rows)
	}
}

func TestExecOrderLimitOffset(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT name FROM Aircraft ORDER BY distance DESC LIMIT 3")
	want := []string{"Boeing 747-400", "Airbus A340-300", "Lockheed L1011"}
	for i, w := range want {
		if rel.Rows[i][0].Text() != w {
			t.Fatalf("order: %v", rel.Rows)
		}
	}
	rel = run(t, db, "SELECT name FROM Aircraft ORDER BY distance DESC LIMIT 2 OFFSET 1")
	if rel.NumRows() != 2 || rel.Rows[0][0].Text() != "Airbus A340-300" {
		t.Fatalf("offset: %v", rel.Rows)
	}
	rel = run(t, db, "SELECT name FROM Aircraft ORDER BY 1 LIMIT 1")
	if rel.Rows[0][0].Text() != "Airbus A340-300" {
		t.Fatalf("positional order: %v", rel.Rows)
	}
}

func TestExecSetOperations(t *testing.T) {
	db := flightDB(t)
	// Destinations from LA intersect origins: Chicago only.
	rel := run(t, db, "SELECT destination FROM Flight INTERSECT SELECT origin FROM Flight")
	if rel.NumRows() != 2 { // Chicago and Los Angeles both appear as destinations
		t.Fatalf("intersect: %v", rel.Rows)
	}
	rel = run(t, db, "SELECT origin FROM Flight EXCEPT SELECT destination FROM Flight")
	if rel.NumRows() != 0 {
		t.Fatalf("except: %v", rel.Rows)
	}
	rel = run(t, db, "SELECT aid FROM Aircraft WHERE aid = 1 UNION SELECT aid FROM Aircraft WHERE aid = 2")
	if rel.NumRows() != 2 {
		t.Fatalf("union: %v", rel.Rows)
	}
	rel = run(t, db, "SELECT aid FROM Aircraft WHERE aid = 1 UNION ALL SELECT aid FROM Aircraft WHERE aid = 1")
	if rel.NumRows() != 2 {
		t.Fatalf("union all must keep duplicates: %v", rel.Rows)
	}
}

func TestExecSubqueries(t *testing.T) {
	db := flightDB(t)
	// IN subquery.
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE aid IN (SELECT aid FROM Flight)"); v.Int() != 8 {
		t.Fatalf("in-subquery = %v", v)
	}
	// NOT IN subquery: aircraft never flown (aid 4 and 8).
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight)"); v.Int() != 2 {
		t.Fatalf("not-in = %v", v)
	}
	// Scalar subquery.
	rel := run(t, db, "SELECT name FROM Aircraft WHERE distance = (SELECT max(distance) FROM Aircraft)")
	if rel.NumRows() != 1 || rel.Rows[0][0].Text() != "Boeing 747-400" {
		t.Fatalf("scalar subquery: %v", rel.Rows)
	}
	// Correlated EXISTS.
	if v := single(t, db, "SELECT count(*) FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid AND F.origin = 'Chicago')"); v.Int() != 2 {
		t.Fatalf("correlated exists = %v", v)
	}
	// Correlated NOT EXISTS.
	if v := single(t, db, "SELECT count(*) FROM Aircraft AS A WHERE NOT EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid)"); v.Int() != 2 {
		t.Fatalf("correlated not exists = %v", v)
	}
}

func TestExecDerivedTable(t *testing.T) {
	db := flightDB(t)
	v := single(t, db, "SELECT count(*) FROM (SELECT DISTINCT origin FROM Flight) AS o")
	if v.Int() != 2 {
		t.Fatalf("derived table count = %v", v)
	}
}

func TestExecLeftJoin(t *testing.T) {
	db := flightDB(t)
	// Aircraft 4 and 8 have no flights; LEFT JOIN must keep them with NULLs.
	rel := run(t, db, "SELECT T1.name, T2.flno FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T2.flno IS NULL")
	if rel.NumRows() != 2 {
		t.Fatalf("left join nulls: %v", rel.Rows)
	}
}

func TestExecDistinct(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT DISTINCT origin FROM Flight")
	if rel.NumRows() != 2 {
		t.Fatalf("distinct: %v", rel.Rows)
	}
}

func TestExecStarExpansion(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT * FROM Aircraft WHERE aid = 3")
	if rel.NumCols() != 3 || rel.Rows[0][1].Text() != "Airbus A340-300" {
		t.Fatalf("star: %v %v", rel.Columns, rel.Rows)
	}
	rel = run(t, db, "SELECT T2.* FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T1.flno = 7")
	if rel.NumCols() != 3 || rel.Rows[0][0].Int() != 3 {
		t.Fatalf("qualified star: %v %v", rel.Columns, rel.Rows)
	}
}

func TestExecArithmetic(t *testing.T) {
	db := flightDB(t)
	if v := single(t, db, "SELECT max(distance) - min(distance) FROM Aircraft"); v.Int() != 8430-520 {
		t.Fatalf("arith = %v", v)
	}
	if v := single(t, db, "SELECT 7 % 3"); v.Int() != 1 {
		t.Fatalf("mod = %v", v)
	}
	if v := single(t, db, "SELECT 1 / 0"); !v.IsNull() {
		t.Fatalf("div by zero must be NULL, got %v", v)
	}
	if v := single(t, db, "SELECT abs(3 - 10)"); v.Int() != 7 {
		t.Fatalf("abs = %v", v)
	}
}

func TestExecNullSemantics(t *testing.T) {
	db := flightDB(t)
	// NULL comparisons drop rows rather than matching.
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE NULL = NULL"); v.Int() != 0 {
		t.Fatalf("NULL=NULL must filter all, got %v", v)
	}
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE NULL IS NULL"); v.Int() != 10 {
		t.Fatalf("IS NULL: %v", v)
	}
	// Aggregates skip NULLs: sum over empty set is NULL.
	if v := single(t, db, "SELECT sum(distance) FROM Aircraft WHERE aid > 100"); !v.IsNull() {
		t.Fatalf("sum of empty = %v", v)
	}
	// COUNT over empty set is 0.
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE aid > 100"); v.Int() != 0 {
		t.Fatalf("count of empty = %v", v)
	}
}

func TestExecEmptyResultQueries(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT name FROM Aircraft WHERE name = 'Concorde'")
	if rel.NumRows() != 0 {
		t.Fatalf("empty expected: %v", rel.Rows)
	}
}

func TestExecErrorPaths(t *testing.T) {
	db := flightDB(t)
	bad := []string{
		"SELECT missing FROM Aircraft",
		"SELECT name FROM NoSuchTable",
		"SELECT sum(name, aid) FROM Aircraft",
		"SELECT a FROM Aircraft UNION SELECT a, b FROM Aircraft",
	}
	for _, sql := range bad {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := New(db).ExecContext(context.Background(), stmt); err == nil {
			t.Errorf("Exec(%q) must fail", sql)
		}
	}
}

func TestExecGroupByMultipleKeys(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT origin, destination, count(*) FROM Flight GROUP BY origin, destination")
	if rel.NumRows() != 9 { // LA->Honolulu is flown twice; all other pairs once
		t.Fatalf("group keys: %d rows", rel.NumRows())
	}
	rel = run(t, db, "SELECT origin, destination FROM Flight GROUP BY origin, destination HAVING count(*) = 2")
	if rel.NumRows() != 1 || rel.Rows[0][1].Text() != "Honolulu" {
		t.Fatalf("having over multi-key groups: %v", rel.Rows)
	}
}

func TestExecOrderByAlias(t *testing.T) {
	db := flightDB(t)
	rel := run(t, db, "SELECT name, distance AS d FROM Aircraft ORDER BY d DESC LIMIT 1")
	if rel.Rows[0][0].Text() != "Boeing 747-400" {
		t.Fatalf("alias order: %v", rel.Rows)
	}
}

func TestExecInList(t *testing.T) {
	db := flightDB(t)
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE aid IN (1, 3, 5)"); v.Int() != 3 {
		t.Fatalf("in list = %v", v)
	}
	if v := single(t, db, "SELECT count(*) FROM Aircraft WHERE aid NOT IN (1, 3, 5)"); v.Int() != 7 {
		t.Fatalf("not in list = %v", v)
	}
}

func BenchmarkExecJoinAggregate(b *testing.B) {
	db := flightDB(b)
	stmt := sqlparse.MustParse("SELECT T2.name, count(*) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid GROUP BY T2.name")
	ex := New(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExecContext(context.Background(), stmt); err != nil {
			b.Fatal(err)
		}
	}
}
