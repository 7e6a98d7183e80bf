package provenance

import (
	"context"
	"errors"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

func track(t *testing.T, db *storage.Database, sql string, rowIdx int) *Provenance {
	t.Helper()
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	p, err := NewTracker(db).TrackContext(context.Background(), stmt, rel, rowIdx)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The paper's Fig 4 example: provenance of count(*)=2 for the Airbus query
// must be the two flights with aid 3.
func TestTrackPaperFig4(t *testing.T) {
	db := datasets.FlightDB()
	p := track(t, db, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'", 0)
	if p.Empty || len(p.Parts) != 1 {
		t.Fatalf("parts: %+v", p)
	}
	part := p.Parts[0]
	if part.Table == nil || part.Table.NumRows() != 2 {
		t.Fatalf("provenance rows = %v", part.Table)
	}
	// Rule 3 must have removed the aggregate from the rewritten SQL.
	rw := part.Rewritten.SQL()
	if strings.Contains(strings.ToLower(rw), "count(") {
		t.Fatalf("aggregate survived rewrite: %s", rw)
	}
	// Rule 2 must project the filter column and the flight primary key.
	idx := part.Table.ColumnIndex("name")
	if idx < 0 {
		t.Fatalf("filter column missing from provenance: %v", part.Table.Columns)
	}
	if part.Table.ColumnIndex("flno") < 0 {
		t.Fatalf("primary key missing from provenance: %v", part.Table.Columns)
	}
	for _, row := range part.Table.Rows {
		if row[idx].Text() != "Airbus A340-300" {
			t.Fatalf("provenance row leaked: %v", row)
		}
	}
}

// Rule 1: a plain projection pins the provenance to the selected tuple.
func TestTrackRule1PinsResult(t *testing.T) {
	db := datasets.FlightDB()
	p := track(t, db, "SELECT name FROM aircraft WHERE distance > 4000", 0)
	part := p.Parts[0]
	nameIdx := part.Table.ColumnIndex("name")
	if nameIdx < 0 {
		t.Fatal("name column missing")
	}
	want := p.Result[0].Text()
	for _, row := range part.Table.Rows {
		if row[nameIdx].Text() != want {
			t.Fatalf("rule 1 failed to pin: got %v want %s", row[nameIdx], want)
		}
	}
	// Rewritten SQL carries the pin.
	if !strings.Contains(part.Rewritten.SQL(), want) {
		t.Fatalf("pin missing from rewrite: %s", part.Rewritten.SQL())
	}
}

// Grouped query: Rule 1 pins the group key, Rule 3 removes GROUP BY, and
// the provenance contains exactly the group's rows.
func TestTrackGroupedQuery(t *testing.T) {
	db := datasets.FlightDB()
	p := track(t, db, "SELECT origin, count(*) FROM flight GROUP BY origin", 0)
	part := p.Parts[0]
	rw := strings.ToLower(part.Rewritten.SQL())
	if strings.Contains(rw, "group by") {
		t.Fatalf("GROUP BY survived: %s", rw)
	}
	origin := p.Result[0].Text()
	n := int64(p.Result[1].Int())
	if part.Table.NumRows() != int(n) {
		t.Fatalf("group provenance = %d rows, result says %d", part.Table.NumRows(), n)
	}
	oIdx := part.Table.ColumnIndex("origin")
	for _, row := range part.Table.Rows {
		if row[oIdx].Text() != origin {
			t.Fatalf("row outside group: %v", row)
		}
	}
}

// ORDER BY / LIMIT queries: the argmax row is pinned via Rule 1.
func TestTrackArgmax(t *testing.T) {
	db := datasets.FlightDB()
	p := track(t, db, "SELECT name FROM aircraft ORDER BY distance DESC LIMIT 1", 0)
	part := p.Parts[0]
	if part.Table.NumRows() != 1 {
		t.Fatalf("argmax provenance rows = %d", part.Table.NumRows())
	}
	if got := part.Table.Rows[0][part.Table.ColumnIndex("name")].Text(); got != "Boeing 747-400" {
		t.Fatalf("argmax pinned wrong row: %s", got)
	}
}

func TestTrackEmptyResult(t *testing.T) {
	db := datasets.FlightDB()
	p := track(t, db, "SELECT name FROM aircraft WHERE name = 'Concorde'", 0)
	if !p.Empty || len(p.Parts) != 0 {
		t.Fatalf("empty result must produce empty provenance: %+v", p)
	}
}

func TestTrackCompoundQuery(t *testing.T) {
	db := datasets.WorldDB()
	sql := "SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'English' INTERSECT SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French'"
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Explain the Seychelles row specifically.
	idx := -1
	for i, row := range rel.Rows {
		if row[0].Text() == "Seychelles" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no Seychelles row: %v", rel.Rows)
	}
	p, err := NewTracker(db).TrackContext(context.Background(), stmt, rel, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Parts) != 2 {
		t.Fatalf("compound provenance parts = %d", len(p.Parts))
	}
	for pi, part := range p.Parts {
		if part.Table == nil || part.Table.NumRows() == 0 {
			t.Fatalf("part %d empty", pi)
		}
		nIdx := part.Table.ColumnIndex("name")
		for _, row := range part.Table.Rows {
			if row[nIdx].Text() != "Seychelles" {
				t.Fatalf("part %d not pinned: %v", pi, row)
			}
		}
	}
}

func TestTrackRowOutOfRange(t *testing.T) {
	db := datasets.FlightDB()
	stmt := sqlparse.MustParse("SELECT name FROM aircraft")
	rel, _ := sqleval.New(db).ExecContext(context.Background(), stmt)
	if _, err := NewTracker(db).TrackContext(context.Background(), stmt, rel, 99); err == nil {
		t.Fatal("out-of-range row must error")
	}
}

// TestTrackRowLimit pins the provenance cap: the rewrite carries LIMIT
// RowLimit, and over countrylanguage's 73 rows the executor returns
// exactly the first RowLimit rows of the rewrite run without it.
func TestTrackRowLimit(t *testing.T) {
	db := datasets.WorldDB()
	// A pinless query: star projection keeps Rule 1 off.
	p := track(t, db, "SELECT * FROM countrylanguage", 0)
	part := p.Parts[0]
	if rw := part.Rewritten.SQL(); !strings.HasSuffix(rw, " LIMIT 64") {
		t.Fatalf("rewrite must carry LIMIT %d: %s", RowLimit, rw)
	}
	uncapped := part.Rewritten.Clone()
	uncapped.Cores[0].Limit = nil
	all, err := sqleval.New(db).ExecContext(context.Background(), uncapped)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() <= RowLimit {
		t.Fatalf("test setup: the uncapped rewrite returns %d rows, want more than %d", all.NumRows(), RowLimit)
	}
	got := part.Table
	if got.NumRows() != RowLimit {
		t.Fatalf("provenance has %d rows, want RowLimit = %d", got.NumRows(), RowLimit)
	}
	for i, row := range got.Rows {
		for c, v := range row {
			if w := all.Rows[i][c]; v.Kind() != w.Kind() || sqltypes.Compare(v, w) != 0 {
				t.Fatalf("provenance row %d = %v, want the uncapped rewrite's %v", i, row, all.Rows[i])
			}
		}
	}
}

func TestTrackNullResultPin(t *testing.T) {
	db := datasets.FlightDB()
	// LEFT JOIN produces NULL flno for unused aircraft; pin must use IS NULL.
	p := track(t, db, "SELECT T2.flno FROM aircraft AS T1 LEFT JOIN flight AS T2 ON T1.aid = T2.aid WHERE T2.flno IS NULL", 0)
	if p.Empty {
		t.Fatal("expected rows")
	}
	rw := p.Parts[0].Rewritten.SQL()
	if !strings.Contains(rw, "IS NULL") {
		t.Fatalf("NULL pin missing: %s", rw)
	}
}

func TestFiltersExtraction(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT name FROM country WHERE continent = 'Europe' AND population >= 80000 AND name LIKE 'A%'")
	fs := Filters(stmt.Core())
	if len(fs) != 3 {
		t.Fatalf("filters = %d", len(fs))
	}
	if fs[0].Op != "=" || fs[0].Value.Text() != "Europe" {
		t.Fatalf("first filter: %+v", fs[0])
	}
	if fs[2].Op != "LIKE" {
		t.Fatalf("like filter: %+v", fs[2])
	}
}

func TestRewriteDoesNotMutateOriginal(t *testing.T) {
	db := datasets.FlightDB()
	stmt := sqlparse.MustParse("SELECT count(*) FROM flight WHERE origin = 'Chicago'")
	before := stmt.SQL()
	RewriteCore(db, stmt.Core(), sqltypes.Row{sqltypes.NewInt(2)})
	if stmt.SQL() != before {
		t.Fatal("RewriteCore must not mutate its input")
	}
}

// TestCompoundOrderByNotProjected: a compound's ORDER BY, which the parser
// attaches to its last core, may name an alias of the first core. The last
// core's rewrite must not project it, or that part cannot execute and
// degrades to operation-level provenance.
func TestCompoundOrderByNotProjected(t *testing.T) {
	db := datasets.FlightDB()
	p := track(t, db, "SELECT origin AS city FROM flight UNION SELECT destination FROM flight ORDER BY city LIMIT 2", 0)
	if len(p.Parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(p.Parts))
	}
	part := p.Parts[1]
	if part.Table == nil {
		t.Fatalf("part 2 has no table; rewrite: %s", part.Rewritten.SQL())
	}
	if strings.Contains(strings.ToLower(part.Rewritten.SQL()), "city") {
		t.Fatalf("part 2 rewrite projects the compound's ORDER BY term: %s", part.Rewritten.SQL())
	}
	if len(part.Core.OrderBy) != 1 {
		t.Fatal("the part must keep the original core, ORDER BY included")
	}
}

// TestOrderByAliasNotProjected: an ORDER BY term that names an output
// alias sorts by the projected value and is no column of the table, so
// Rule 2 must not project it, or the rewrite cannot execute and the part
// degrades to operation-level provenance.
func TestOrderByAliasNotProjected(t *testing.T) {
	db := datasets.FlightDB()
	for _, tc := range []struct{ sql, want string }{
		{"SELECT origin, count(*) AS n FROM flight GROUP BY origin ORDER BY n DESC LIMIT 1",
			"SELECT origin, flight.flno FROM flight WHERE origin = 'Los Angeles' LIMIT 64"},
		{"SELECT origin AS city FROM flight ORDER BY city",
			"SELECT origin, flight.flno FROM flight WHERE origin = 'Chicago' LIMIT 64"},
	} {
		p := track(t, db, tc.sql, 0)
		part := p.Parts[0]
		if got := part.Rewritten.SQL(); got != tc.want {
			t.Errorf("%s:\nrewrite %s\nwant    %s", tc.sql, got, tc.want)
		}
		if part.Table == nil || part.Table.NumRows() == 0 {
			t.Errorf("%s: the rewrite retrieved no provenance table", tc.sql)
		}
		p.Release()
	}
}

// TestReleaseKeepsResultSet: Release hands back the part tables only. The
// caller's result relation and the to-explain tuple stay as they were.
func TestReleaseKeepsResultSet(t *testing.T) {
	db := datasets.FlightDB()
	stmt := sqlparse.MustParse("SELECT origin, count(*) FROM flight GROUP BY origin")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.Clone()
	p, err := NewTracker(db).TrackContext(context.Background(), stmt, rel, 1)
	if err != nil || len(p.Parts) != 1 || p.Parts[0].Table == nil {
		t.Fatalf("track: %v", err)
	}
	p.Release()
	p.Release() // a second release is a no-op
	if p.Parts[0].Table != nil {
		t.Fatal("a released part still has its table")
	}
	if p.ResultSet != rel || rel.String() != want.String() {
		t.Fatalf("ResultSet changed by Release:\n%s\nwant\n%s", rel, want)
	}
	if !slices.Equal(p.Result, want.Rows[1]) {
		t.Fatalf("Result = %v, want %v", p.Result, want.Rows[1])
	}
}

// cancelAfter is a context whose Err reports Canceled from call ok+1 on,
// so a tracking can be cancelled between two of its rewrites.
type cancelAfter struct {
	context.Context
	calls, ok int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls > c.ok {
		return context.Canceled
	}
	return nil
}

// TestCancelledTrackReleasesParts: a tracking cancelled after its first
// rewrite executed hands that part's storage back, so with the rewrites
// memoised and the pool warm it allocates no more than a tracking that
// completes. Dropping the executed part instead leaves the next tracking
// to build its storage afresh. Counted on one P (AllocsPerRun) with the
// collector off, which also keeps the pool from being emptied.
func TestCancelledTrackReleasesParts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db := datasets.WorldDB()
	stmt := sqlparse.MustParse("SELECT name FROM country WHERE continent = 'Europe' UNION SELECT name FROM city WHERE countrycode = 'NLD'")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(db)
	completed := testing.AllocsPerRun(20, func() {
		p, err := tr.TrackContext(context.Background(), stmt, rel, 0)
		if err != nil || len(p.Parts) != 2 || p.Parts[1].Table == nil {
			t.Fatalf("track: %v", err)
		}
		p.Release()
	})
	ctx := &cancelAfter{Context: context.Background(), ok: 1}
	cancelled := testing.AllocsPerRun(20, func() {
		ctx.calls = 0
		if _, err := tr.TrackContext(ctx, stmt, rel, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("track under a context cancelled after the first rewrite: %v", err)
		}
		if ctx.calls < 2 {
			t.Fatalf("the second rewrite never consulted the context (%d Err calls)", ctx.calls)
		}
	})
	if cancelled > completed {
		t.Errorf("a cancelled tracking allocates %.0f/op vs %.0f/op for a completed one — its executed part is not released", cancelled, completed)
	}
	t.Logf("tracking allocs/op: completed=%.0f cancelled=%.0f", completed, cancelled)
}

// BenchmarkTrack measures tracking a three-table join whose provenance
// rewrite returns more than RowLimit rows, so the executor stops at the
// cap. The rewrite memo is warm after the first call, as in the CycleSQL
// loop, so the loop measures executing the rewrite.
func BenchmarkTrack(b *testing.B) {
	db := datasets.WorldDB()
	stmt := sqlparse.MustParse("SELECT count(*) FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode JOIN city AS T3 ON T3.countrycode = T1.code")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewTracker(db)
	b.ReportAllocs()
	for b.Loop() {
		p, err := tr.TrackContext(context.Background(), stmt, rel, 0)
		if err != nil || p.Parts[0].Table.NumRows() != RowLimit {
			b.Fatalf("track: %v", err)
		}
	}
}

// BenchmarkTrackReleased is BenchmarkTrack with the provenance released
// after every call, as the loop's feedback does, so the rewrite's result
// storage is recycled.
func BenchmarkTrackReleased(b *testing.B) {
	db := datasets.WorldDB()
	stmt := sqlparse.MustParse("SELECT count(*) FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode JOIN city AS T3 ON T3.countrycode = T1.code")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewTracker(db)
	b.ReportAllocs()
	for b.Loop() {
		p, err := tr.TrackContext(context.Background(), stmt, rel, 0)
		if err != nil || p.Parts[0].Table.NumRows() != RowLimit {
			b.Fatalf("track: %v", err)
		}
		p.Release()
	}
}
