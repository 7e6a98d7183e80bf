package sqlast_test

import (
	"testing"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
)

// gateQuery joins, groups, filters groups and nests a subquery, so every
// clause and the subquery recursion of the renderer are on the measured
// path. Its WHEREs hold several conjuncts at two depths, so CacheKey
// sorts conjuncts at both.
const gateQuery = "SELECT T1.Name, count(*) AS n FROM Singer AS T1 JOIN Song AS T2 ON T1.Id = T2.Sid " +
	"WHERE T2.Year > 2010 AND 5 < T1.Age AND T1.Id IN (SELECT Sid FROM Award WHERE Kind = 'gold' AND 2000 <= Year) " +
	"GROUP BY T1.Name HAVING count(*) > 1 ORDER BY n DESC LIMIT 5"

// TestRenderAllocGate is the allocation regression gate for the SQL
// renderer: warm AppendSQL, AppendExpr and sqlnorm.AppendCacheKey into
// a reused buffer allocate nothing, and SQL() and sqlnorm.CacheKey
// allocate only their result strings.
func TestRenderAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	stmt := sqlparse.MustParse(gateQuery)
	where := stmt.Cores[0].Where
	buf := stmt.AppendSQL(nil)
	buf = sqlast.AppendExpr(buf, where)
	for _, g := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"AppendSQL", 0, func() { buf = stmt.AppendSQL(buf[:0]) }},
		{"AppendExpr", 0, func() { buf = sqlast.AppendExpr(buf[:0], where) }},
		{"SQL", 1, func() { _ = stmt.SQL() }},
		{"AppendCacheKey", 0, func() { buf = sqlnorm.AppendCacheKey(buf[:0], stmt) }},
		{"CacheKey", 1, func() { _ = sqlnorm.CacheKey(stmt) }},
	} {
		g.fn()
		got := testing.AllocsPerRun(200, g.fn)
		t.Logf("warm %s: %.1f allocs/op", g.name, got)
		if got > g.max {
			t.Errorf("warm %s costs %.1f allocs/op, gate is %.0f", g.name, got, g.max)
		}
	}
}
