package frontdiff

import (
	"testing"

	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
)

// benchQuery is a representative Spider-dev-shaped statement: aliased
// join, WHERE, GROUP BY + HAVING with aggregates, ORDER BY and LIMIT.
const benchQuery = "SELECT T1.name, count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id WHERE T2.year = 2014 GROUP BY T1.name HAVING count(*) > 1 ORDER BY T1.name LIMIT 5"

// TestParseAllocGate is the allocation regression gate for the
// zero-allocation front end, in the style of the sqleval index gates:
// a warm Parse of the representative query, whose arena chunks become
// the returned AST, must stay within parseAllocGate allocations. If an
// intentional change moves the count, update the gate and
// docs/benchmarks.md.
func TestParseAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	const parseAllocGate = 14
	if _, err := sqlparse.Parse(benchQuery); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sqlparse.Parse(benchQuery); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Parse: %.1f allocs/op", allocs)
	if allocs > parseAllocGate {
		t.Errorf("warm Parse costs %.1f allocs/op, gate is %d", allocs, parseAllocGate)
	}
}

func BenchmarkLexSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := seedLex(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexNew(b *testing.B) {
	b.ReportAllocs()
	var toks []sqllex.Token
	for i := 0; i < b.N; i++ {
		var err error
		toks, err = sqllex.LexInto(benchQuery, toks[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := seedParse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNewDetached is what package-level Parse gives every
// caller: the arena detaches so the AST lives arbitrarily long (a plan
// in sqleval's cache keeps the AST it was compiled from).
func BenchmarkParseNewDetached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheKeySeed(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedCacheKey(stmt)
	}
}

func BenchmarkCacheKeyNew(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlnorm.CacheKey(stmt)
	}
}
