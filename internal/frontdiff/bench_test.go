package frontdiff

import (
	"testing"

	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqloracle"
	"cyclesql/internal/sqlparse"
)

// benchQuery is a representative Spider-dev-shaped statement: aliased
// join, WHERE, GROUP BY + HAVING with aggregates, ORDER BY and LIMIT.
const benchQuery = "SELECT T1.name, count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id WHERE T2.year = 2014 GROUP BY T1.name HAVING count(*) > 1 ORDER BY T1.name LIMIT 5"

// TestParseAllocGate is the allocation regression gate for the
// zero-allocation front end, in the style of the sqleval index gates:
// a warm pooled parse of the representative query must stay within 9
// allocations, and CacheKeyOf of an already-interned shape within 1.
// Measured values are recorded in BENCH_PR9.json; if an intentional
// change moves them, update both.
func TestParseAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	p := sqlparse.AcquireParser()
	defer sqlparse.ReleaseParser(p)
	if _, err := p.Parse(benchQuery); err != nil {
		t.Fatal(err)
	}
	parseAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Parse(benchQuery); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm pooled parse: %.1f allocs/op", parseAllocs)
	if parseAllocs > 9 {
		t.Errorf("warm pooled parse costs %.1f allocs/op, gate is 9", parseAllocs)
	}
	if _, err := sqlnorm.CacheKeyOf(benchQuery); err != nil {
		t.Fatal(err)
	}
	keyAllocs := testing.AllocsPerRun(200, func() {
		if _, err := sqlnorm.CacheKeyOf(benchQuery); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm interned CacheKeyOf: %.1f allocs/op", keyAllocs)
	if keyAllocs > 1 {
		t.Errorf("warm interned CacheKeyOf costs %.1f allocs/op, gate is 1", keyAllocs)
	}
}

func BenchmarkLexSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqloracle.Lex(benchQuery); err != nil {
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
		if _, err := sqloracle.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNewPooled is the arena-reuse mode: the AST is valid
// only until the next Parse on the same parser — the shape CacheKeyOf
// and other bounded-lifetime callers use.
func BenchmarkParseNewPooled(b *testing.B) {
	b.ReportAllocs()
	p := sqlparse.AcquireParser()
	defer sqlparse.ReleaseParser(p)
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(benchQuery); err != nil {
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
		sqloracle.CacheKey(stmt)
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

// BenchmarkCacheKeyOfNew is the end-to-end string-in key-out path
// (pooled parse + one-pass render + intern), the whole front end in one
// call.
func BenchmarkCacheKeyOfNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlnorm.CacheKeyOf(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}
