package sqleval

import (
	"context"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// These tests pin the push path — joins feeding WHERE and projection
// directly, aggregates folded per group as rows arrive — against the
// nested-loop leg and against literal relations, value kinds included.

// mixedDB holds one untyped column, so a group can mix INTEGER, REAL and
// TEXT values.
func mixedDB(t testing.TB) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "mixed",
		Tables: []*schema.Table{
			{Name: "M", Columns: []schema.Column{
				{Name: "g", Type: sqltypes.KindText},
				{Name: "v", Type: sqltypes.KindNull},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	i, f, txt, null := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewText, sqltypes.Null()
	for _, r := range []struct {
		g string
		v sqltypes.Value
	}{
		{"ints", i(1)}, {"ints", i(2)}, {"ints", null},
		{"floats", i(1)}, {"floats", f(2.5)},
		{"text", i(1)}, {"text", txt("x")},
		{"numtext", i(3)}, {"numtext", txt("2")},
		{"nulls", null},
		{"tie", i(1)}, {"tie", f(1)}, {"tie", i(0)}, {"tie", f(0)},
		{"dup", i(2)}, {"dup", f(2)}, {"dup", i(3)},
	} {
		db.MustInsert("M", txt(r.g), r.v)
	}
	return db
}

// wantRows requires rel to hold exactly want, in order, with equal value
// kinds: an INTEGER 3 and a REAL 3.0 compare equal but are not the same
// answer.
func wantRows(t *testing.T, sql string, rel *sqltypes.Relation, want [][]sqltypes.Value) {
	t.Helper()
	if rel.NumRows() != len(want) {
		t.Fatalf("%q: %d rows, want %d:\n%s", sql, rel.NumRows(), len(want), rel)
	}
	for ri, row := range want {
		if len(rel.Rows[ri]) != len(row) {
			t.Fatalf("%q: row %d has %d values, want %d", sql, ri, len(rel.Rows[ri]), len(row))
		}
		for ci, v := range row {
			got := rel.Rows[ri][ci]
			if got.Kind() != v.Kind() || sqltypes.Compare(got, v) != 0 {
				t.Fatalf("%q: row %d col %d = %v (%v), want %v (%v):\n%s", sql, ri, ci, got, got.Kind(), v, v.Kind(), rel)
			}
		}
	}
}

func TestPushPathSemantics(t *testing.T) {
	i, f, txt, null := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewText, sqltypes.Null()
	flights, mixed := flightDB(t), mixedDB(t)
	for _, tc := range []struct {
		name string
		db   *storage.Database
		sql  string
		want [][]sqltypes.Value
	}{
		{"left join null extension through WHERE", flights,
			"SELECT T1.name, T2.flno FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T2.flno IS NULL",
			[][]sqltypes.Value{{txt("British Aerospace Jetstream 41"), null}, {txt("Tupolev 154"), null}}},
		{"left join right-side WHERE", flights,
			"SELECT T1.name, T2.flno FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T2.origin = 'Chicago'",
			[][]sqltypes.Value{{txt("Lockheed L1011"), i(76)}, {txt("Boeing 757-300"), i(68)}}},
		{"three-table join", flights,
			"SELECT T2.name, T1.flno, T3.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid JOIN Flight AS T3 ON T3.aid = T2.aid WHERE T1.flno < T3.flno",
			[][]sqltypes.Value{{txt("Lockheed L1011"), i(2), i(76)}, {txt("Airbus A340-300"), i(7), i(13)}}},
		{"three-table left join", flights,
			"SELECT T1.name, T2.flno, T3.name FROM Aircraft AS T1 LEFT JOIN Flight AS T2 ON T1.aid = T2.aid LEFT JOIN Aircraft AS T3 ON T3.aid = T2.aid + 1 WHERE T1.distance < 2000",
			[][]sqltypes.Value{{txt("British Aerospace Jetstream 41"), null, null}, {txt("Embraer ERJ-145"), i(34), txt("SAAB 340")}, {txt("Piper Archer III"), i(33), txt("Tupolev 154")}}},
		{"grouped join with COUNT(DISTINCT)", flights,
			"SELECT T1.origin, count(DISTINCT T2.name), count(*) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid GROUP BY T1.origin HAVING count(DISTINCT T1.aid) > 1",
			[][]sqltypes.Value{{txt("Los Angeles"), i(7), i(8)}, {txt("Chicago"), i(2), i(2)}}},
		{"grouped join HAVING on COUNT(DISTINCT)", flights,
			"SELECT T1.origin, count(DISTINCT T2.name) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid GROUP BY T1.origin HAVING count(DISTINCT T2.name) < 5 ORDER BY count(*)",
			[][]sqltypes.Value{{txt("Chicago"), i(2)}}},
		{"SUM and AVG over mixed kinds", mixed,
			"SELECT g, sum(v), avg(v), count(v), count(*) FROM M GROUP BY g",
			[][]sqltypes.Value{
				{txt("ints"), i(3), f(1.5), i(2), i(3)},
				{txt("floats"), f(3.5), f(1.75), i(2), i(2)},
				{txt("text"), null, null, i(2), i(2)},
				{txt("numtext"), f(5), f(2.5), i(2), i(2)},
				{txt("nulls"), null, null, i(0), i(1)},
				{txt("tie"), f(2), f(0.5), i(4), i(4)},
				{txt("dup"), f(7), f(7.0 / 3), i(3), i(3)},
			}},
		{"DISTINCT aggregates keep the first of equal values", mixed,
			"SELECT g, sum(DISTINCT v), count(DISTINCT v), avg(DISTINCT v) FROM M WHERE g = 'dup' OR g = 'tie' GROUP BY g",
			[][]sqltypes.Value{{txt("tie"), i(1), i(2), f(0.5)}, {txt("dup"), i(5), i(2), f(2.5)}}},
		{"MIN and MAX ties across kinds", mixed,
			"SELECT g, min(v), max(v) FROM M WHERE g = 'tie' OR g = 'dup' OR g = 'text' GROUP BY g",
			[][]sqltypes.Value{{txt("text"), i(1), txt("x")}, {txt("tie"), i(0), i(1)}, {txt("dup"), i(2), i(3)}}},
		{"empty input with aggregates", mixed,
			"SELECT count(*), count(v), sum(v), avg(v), min(v), max(v) FROM M WHERE g = 'none'",
			[][]sqltypes.Value{{i(0), i(0), null, null, null, null}}},
		{"empty grouped input", mixed,
			"SELECT g, count(*) FROM M WHERE g = 'none' GROUP BY g",
			nil},
		{"empty join with aggregates", flights,
			"SELECT count(*), max(T2.name) FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 9000",
			[][]sqltypes.Value{{i(0), null}}},
		{"HAVING drops the group whose nested aggregate errors", mixed,
			"SELECT g, sum(count(v)) FROM M GROUP BY g HAVING 1 = 0",
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rel := runBoth(t, tc.db, tc.sql)
			wantRows(t, tc.sql, rel, tc.want)
		})
	}
}

// TestPushPathAggregateErrors pins that an aggregate evaluated outside a
// grouped context fails with the legacy message on every leg — in WHERE,
// in GROUP BY, and nested in another aggregate's argument once the outer
// aggregate is read.
func TestPushPathAggregateErrors(t *testing.T) {
	db := mixedDB(t)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT g FROM M WHERE sum(v) > 1", "sqleval: aggregate SUM outside grouped context"},
		{"SELECT count(*) FROM M GROUP BY max(v)", "sqleval: aggregate MAX outside grouped context"},
		{"SELECT g, sum(count(v)) FROM M GROUP BY g", "sqleval: aggregate COUNT outside grouped context"},
		{"SELECT g FROM M ORDER BY count(*)", "sqleval: aggregate COUNT outside grouped context"},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.sql, err)
		}
		for name, ex := range map[string]*Executor{"cost": New(db), "index-free": NewIndexFree(db), "nested-loop": NewNestedLoop(db)} {
			_, err := ex.ExecContext(context.Background(), stmt)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s %q: error %v, want %q", name, tc.sql, err, tc.want)
			}
		}
	}
}
