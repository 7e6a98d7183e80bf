package frontdiff

import (
	"reflect"
	"testing"

	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
)

// fuzzSeeds prime all three fuzz targets with inputs that reach every
// lexer state (quote escaping, scientific numbers, operator pairs) and
// every parser production (set ops, joins, subqueries, HAVING, negative
// literal folding), plus deliberately broken inputs so the error paths
// stay covered. testdata/fuzz/ holds the same seeds in corpus form.
var fuzzSeeds = []string{
	"SELECT * FROM t",
	"SELECT DISTINCT a, b FROM t WHERE 5 > a AND b != 'x' ORDER BY a DESC LIMIT 3 OFFSET 1",
	"SELECT count(*) FROM t GROUP BY a HAVING count(*) > 1 LIMIT 2, 5",
	"SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.k = T2.k LEFT OUTER JOIN v ON v.id = T1.id",
	"SELECT a FROM t WHERE a IN (SELECT b FROM u) UNION SELECT c FROM w",
	"SELECT a FROM t WHERE x BETWEEN 1 AND 2 OR NOT EXISTS (SELECT 1 FROM u)",
	"SELECT 'O''Brien', \"co\"\"l\", `tick` FROM t",
	"SELECT -1.5e-3, .5, 1e9, abs(-2) FROM t WHERE a IS NOT NULL AND b <> 0",
	"SELECT a FROM t WHERE s LIKE '%x_' AND t.b NOT IN (1, 2.0, NULL)",
	"select Sum ( t . `a` ) from T where not ( x = 1 ) and y <= 'é'",
	"SELECT 'unterminated",
	"SELECT # FROM t",
	"SELECT a FROM",
	"",
}

// FuzzLex: both lexers must agree on the verdict and, when they accept,
// on the exact token stream (kind, text, and byte offset). Neither may
// panic on any input.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		oToks, oErr := seedLex(sql)
		nToks, nErr := sqllex.Lex(sql)
		if (oErr == nil) != (nErr == nil) {
			t.Fatalf("lex verdict divergence on %q: oracle err=%v, new err=%v", sql, oErr, nErr)
		}
		if oErr == nil && !reflect.DeepEqual(oToks, nToks) {
			t.Fatalf("token divergence on %q:\noracle: %+v\nnew:    %+v", sql, oToks, nToks)
		}
	})
}

// FuzzParse: both parsers must agree on the verdict and, when they
// accept, produce deeply-equal ASTs. Neither may panic on any input.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		oStmt, oErr := seedParse(sql)
		nStmt, nErr := sqlparse.Parse(sql)
		if (oErr == nil) != (nErr == nil) {
			t.Fatalf("parse verdict divergence on %q: oracle err=%v, new err=%v", sql, oErr, nErr)
		}
		if oErr == nil && !reflect.DeepEqual(oStmt, nStmt) {
			t.Fatalf("AST divergence on %q:\noracle: %s\nnew:    %s", sql, oStmt.SQL(), nStmt.SQL())
		}
	})
}

// FuzzCacheKey: for every input both engines parse, the one-pass
// canonical key must equal the oracle's clone-normalize-render key, and
// the string-in key must match the AST-in key.
func FuzzCacheKey(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		oStmt, oErr := seedParse(sql)
		nStmt, nErr := sqlparse.Parse(sql)
		if (oErr == nil) != (nErr == nil) {
			t.Fatalf("parse verdict divergence on %q: oracle err=%v, new err=%v", sql, oErr, nErr)
		}
		if oErr != nil {
			if _, err := sqlnorm.CacheKeyOf(sql); err == nil {
				t.Fatalf("CacheKeyOf accepted %q but both parsers rejected it", sql)
			}
			return
		}
		oKey := seedCacheKey(oStmt)
		nKey := sqlnorm.CacheKey(nStmt)
		if oKey != nKey {
			t.Fatalf("CacheKey divergence on %q:\noracle: %q\nnew:    %q", sql, oKey, nKey)
		}
		if direct, err := sqlnorm.CacheKeyOf(sql); err != nil || direct != nKey {
			t.Fatalf("CacheKeyOf divergence on %q: key %q err %v, want %q", sql, direct, err, nKey)
		}
	})
}
