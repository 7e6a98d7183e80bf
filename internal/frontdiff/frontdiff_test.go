// Package frontdiff is the differential harness that holds the
// zero-allocation SQL front end (sqllex, sqlparse, sqlnorm.CacheKey)
// bit-identical to the seed implementation preserved in this package's
// seed*_test.go files. Every corpus — the 200 Spider dev queries, the
// 480 seeded-random property queries, and every SQL-looking string
// literal already present in the repo's tests and testdata — must
// produce identical token streams, deeply-equal ASTs, byte-identical
// CacheKeys, and identical ok/error verdicts through both engines.
// The fuzz targets in fuzz_test.go extend the same oracle-agreement
// property to arbitrary bytes.
package frontdiff

import (
	"reflect"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqlgen"
	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
)

// assertParity runs one input through both front ends and fails on any
// observable divergence. It returns the new engine's AST when both
// engines accept the input, nil otherwise.
func assertParity(t *testing.T, sql string) bool {
	t.Helper()
	oToks, oLexErr := seedLex(sql)
	nToks, nLexErr := sqllex.Lex(sql)
	if (oLexErr == nil) != (nLexErr == nil) {
		t.Errorf("lex verdict divergence on %q: oracle err=%v, new err=%v", sql, oLexErr, nLexErr)
		return false
	}
	if oLexErr == nil && !reflect.DeepEqual(oToks, nToks) {
		for i := range oToks {
			if i >= len(nToks) || oToks[i] != nToks[i] {
				t.Errorf("token divergence on %q at token %d: oracle %+v, new %+v", sql, i, oToks[i], tokAt(nToks, i))
				return false
			}
		}
		t.Errorf("token count divergence on %q: oracle %d, new %d", sql, len(oToks), len(nToks))
		return false
	}
	oStmt, oErr := seedParse(sql)
	nStmt, nErr := sqlparse.Parse(sql)
	if (oErr == nil) != (nErr == nil) {
		t.Errorf("parse verdict divergence on %q: oracle err=%v, new err=%v", sql, oErr, nErr)
		return false
	}
	if oErr != nil {
		return false
	}
	if !reflect.DeepEqual(oStmt, nStmt) {
		t.Errorf("AST divergence on %q:\noracle: %s\nnew:    %s", sql, oStmt.SQL(), nStmt.SQL())
		return false
	}
	oKey := seedCacheKey(oStmt)
	nKey := sqlnorm.CacheKey(nStmt)
	if oKey != nKey {
		t.Errorf("CacheKey divergence on %q:\noracle: %q\nnew:    %q", sql, oKey, nKey)
		return false
	}
	directKey, err := sqlnorm.CacheKeyOf(sql)
	if err != nil || directKey != nKey {
		t.Errorf("CacheKeyOf divergence on %q: key %q err %v, want %q", sql, directKey, err, nKey)
		return false
	}
	return true
}

func tokAt(toks []sqllex.Token, i int) any {
	if i < len(toks) {
		return toks[i]
	}
	return "<missing>"
}

// parseableCorpus returns every corpus query both engines accept,
// asserting full parity along the way.
func parseableCorpus(t *testing.T, queries []string) []string {
	t.Helper()
	var ok []string
	for _, q := range queries {
		if assertParity(t, q) {
			ok = append(ok, q)
		}
	}
	return ok
}

func TestSpiderDevParity(t *testing.T) {
	dev := datasets.Spider().Dev
	if len(dev) < 200 {
		t.Fatalf("Spider dev set has %d examples, want at least 200", len(dev))
	}
	for _, ex := range dev {
		assertParity(t, ex.GoldSQL)
	}
}

func TestPropertyCorpusParity(t *testing.T) {
	qs := sqlgen.PropertyQueries()
	if len(qs) != sqlgen.SingleTableCount+sqlgen.JoinCount {
		t.Fatalf("property corpus has %d queries, want %d", len(qs), sqlgen.SingleTableCount+sqlgen.JoinCount)
	}
	parseableCorpus(t, qs)
}

// TestTestdataSQLParity differentially checks every SQL-looking string
// literal already present in the repo's Go sources (fixtures, error
// cases, benchmarks) and JSON testdata. Invalid SQL is as valuable as
// valid SQL here: both engines must reject it alike.
func TestTestdataSQLParity(t *testing.T) {
	lits := harvestSQLLiterals(t)
	if len(lits) < 50 {
		t.Fatalf("harvested only %d SQL literals; harvesting is likely broken", len(lits))
	}
	accepted := 0
	for _, sql := range lits {
		if assertParity(t, sql) {
			accepted++
		}
	}
	t.Logf("testdata corpus: %d literals, %d parseable", len(lits), accepted)
}

// TestRoundTripParity is the round-trip property: for every parseable
// corpus statement, AST.SQL() re-parses — through both engines — to a
// statement with an identical CacheKey and a byte-stable re-render, and
// from the second parse onward the AST itself is a fixpoint. (The first
// hop may fold numeric spelling — the renderer writes the float 7.0 as
// "7", which re-parses as an integer — but CacheKey renders both the
// same way, so the key never moves.) Literal-first comparisons keep
// their oriented CacheKey across the round trip even though the
// rendered SQL preserves the original operand order.
func TestRoundTripParity(t *testing.T) {
	var corpus []string
	for _, ex := range datasets.Spider().Dev {
		corpus = append(corpus, ex.GoldSQL)
	}
	corpus = append(corpus, sqlgen.PropertyQueries()...)
	for _, q := range parseableCorpus(t, corpus) {
		stmt := sqlparse.MustParse(q)
		rendered := stmt.SQL()
		if !assertParity(t, rendered) {
			continue
		}
		stmt2, err := sqlparse.Parse(rendered)
		if err != nil {
			t.Errorf("round trip of %q failed to re-parse %q: %v", q, rendered, err)
			continue
		}
		if k1, k2 := sqlnorm.CacheKey(stmt), sqlnorm.CacheKey(stmt2); k1 != k2 {
			t.Errorf("round trip of %q not CacheKey-stable:\nfirst:  %q\nsecond: %q", q, k1, k2)
			continue
		}
		r2 := stmt2.SQL()
		if r2 != rendered {
			t.Errorf("round trip of %q not render-stable:\nfirst:  %q\nsecond: %q", q, rendered, r2)
			continue
		}
		stmt3, err := sqlparse.Parse(r2)
		if err != nil {
			t.Errorf("round trip of %q failed third parse of %q: %v", q, r2, err)
			continue
		}
		if !reflect.DeepEqual(stmt2, stmt3) {
			t.Errorf("round trip of %q not an AST fixpoint after one hop:\nrender: %s", q, r2)
		}
	}
}

// TestCacheKeyOrientation pins the PR 5 literal-first orientation
// property through the one-pass renderer: operand-swapped comparisons in
// predicate positions share a key; in projection positions they do not.
func TestCacheKeyOrientation(t *testing.T) {
	same := [][2]string{
		{"SELECT a FROM t WHERE 5 > a", "SELECT a FROM t WHERE a < 5"},
		{"SELECT a FROM t WHERE 'x' = b AND a <= 3", "SELECT a FROM t WHERE 3 >= a AND b = 'x'"},
		{"SELECT count(*) FROM t GROUP BY a HAVING 2 < count(*)", "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2"},
		// Projection spelling must match: the key's appendix preserves
		// output labels verbatim, so only FROM/ON/WHERE may vary case.
		{"SELECT T.a FROM T JOIN U ON 1 = T.k WHERE T.b = 2", "SELECT T.a FROM t JOIN u ON t.k = 1 WHERE 2 = t.b"},
	}
	for _, pair := range same {
		k0 := sqlnorm.CacheKey(sqlparse.MustParse(pair[0]))
		k1 := sqlnorm.CacheKey(sqlparse.MustParse(pair[1]))
		if k0 != k1 {
			t.Errorf("CacheKey(%q) != CacheKey(%q):\n%q\n%q", pair[0], pair[1], k0, k1)
		}
	}
	// Projection items are labels, hence observable: no orientation there.
	p0 := sqlnorm.CacheKey(sqlparse.MustParse("SELECT 5 > a FROM t"))
	p1 := sqlnorm.CacheKey(sqlparse.MustParse("SELECT a < 5 FROM t"))
	if p0 == p1 {
		t.Error("projection-position comparison must not be oriented")
	}
}
