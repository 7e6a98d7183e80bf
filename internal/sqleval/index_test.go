package sqleval

import (
	"context"
	"fmt"
	"testing"

	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
)

// TestIndexPointLookupParity runs probe-eligible queries through all three
// access paths; the compile-time probe must be invisible in the results.
func TestIndexPointLookupParity(t *testing.T) {
	db := flightDB(t)
	for _, sql := range []string{
		// Single-table probes: text key, int key, literal on the left,
		// float literal against an INTEGER column (Compare semantics).
		"SELECT flno FROM Flight WHERE origin = 'Chicago'",
		"SELECT name FROM Aircraft WHERE aid = 3",
		"SELECT name FROM Aircraft WHERE 3 = aid",
		"SELECT name FROM Aircraft WHERE aid = 3.0",
		// No match and equality on a duplicated column.
		"SELECT name FROM Aircraft WHERE aid = 999",
		"SELECT flno FROM Flight WHERE aid = 9",
		// Probe combined with residual filters and a second equality on the
		// same column (only the first becomes the probe).
		"SELECT flno FROM Flight WHERE origin = 'Los Angeles' AND flno > 50",
		"SELECT flno FROM Flight WHERE origin = 'Chicago' AND origin = 'Chicago'",
		"SELECT flno FROM Flight WHERE origin = 'Chicago' AND origin = 'Boston'",
		// Probes inside joins: base side, joined side, both sides.
		"SELECT T1.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'",
		"SELECT T1.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T1.origin = 'Chicago'",
		"SELECT T1.flno FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T1.origin = 'Chicago' AND T2.aid = 9",
		// LEFT JOIN: only the base scan may probe; the joined side must
		// stay a post-join filter to preserve null extension.
		"SELECT T2.name, T1.flno FROM Aircraft AS T2 LEFT JOIN Flight AS T1 ON T1.aid = T2.aid WHERE T2.name = 'SAAB 340'",
		"SELECT T2.name, T1.flno FROM Aircraft AS T2 LEFT JOIN Flight AS T1 ON T1.aid = T2.aid WHERE T1.origin = 'Chicago'",
		// Probe under grouping and ordering.
		"SELECT count(*) FROM Flight WHERE origin = 'Los Angeles'",
		"SELECT destination, count(*) FROM Flight WHERE origin = 'Los Angeles' GROUP BY destination ORDER BY count(*) DESC",
	} {
		runBoth(t, db, sql)
	}
}

// TestIndexJoinReuseParity covers joins whose build side is a whole base
// table — the shape that reuses the column index instead of rebuilding a
// hash table — including LEFT JOIN null extension over the index.
func TestIndexJoinReuseParity(t *testing.T) {
	db := flightDB(t)
	for _, sql := range []string{
		"SELECT T1.flno, T2.name FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid",
		"SELECT T1.flno, T2.name FROM Flight AS T1 JOIN Aircraft AS T2 ON T1.aid = T2.aid WHERE T2.distance > 2000",
		"SELECT T2.name, T1.flno FROM Aircraft AS T2 LEFT JOIN Flight AS T1 ON T1.aid = T2.aid",
		"SELECT T1.flno, T2.flno FROM Flight AS T1 JOIN Flight AS T2 ON T1.aid = T2.aid WHERE T1.flno < T2.flno",
	} {
		runBoth(t, db, sql)
	}
}

// TestIndexProbeSeesInserts pins index maintenance end to end: a cached
// probe plan must observe rows inserted after the index was built.
func TestIndexProbeSeesInserts(t *testing.T) {
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
	db.MustInsert("Flight", sqltypes.NewInt(600), sqltypes.NewInt(2), sqltypes.NewText("Chicago"), sqltypes.NewText("Tokyo"))
	rel, err = ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].Int() != 3 {
		t.Fatalf("probe missed the inserted row: %v", rel.Rows)
	}
}

// TestIndexProbeSeesMutations pins index invalidation: after Mutate rewrote
// values in place, a cached probe plan must read rebuilt buckets.
func TestIndexProbeSeesMutations(t *testing.T) {
	db := flightDB(t)
	stmt, err := sqlparse.Parse("SELECT count(*) FROM Flight WHERE origin = 'Chicago'")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db)
	if rel, err := ex.ExecContext(context.Background(), stmt); err != nil || rel.Rows[0][0].Int() != 2 {
		t.Fatalf("before mutate: %v, %v", rel, err)
	}
	db.Mutate(func(table string, row sqltypes.Row) {
		if table == "flight" && row[2].Text() == "Los Angeles" {
			row[2] = sqltypes.NewText("Chicago")
		}
	})
	rel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].Int() != 10 {
		t.Fatalf("probe read stale buckets after mutate: %v", rel.Rows)
	}
}

// TestPlanCacheSharedAcrossIdenticalASTs pins the canonical-SQL keying:
// distinct parses of equivalent SQL share one compiled plan.
func TestPlanCacheSharedAcrossIdenticalASTs(t *testing.T) {
	db := flightDB(t)
	ex := New(db)
	parse := func(sql string) *program {
		t.Helper()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ex.compiled(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := parse("SELECT flno FROM Flight WHERE origin = 'Chicago' AND aid > 2")
	if again := parse("SELECT flno FROM Flight WHERE origin = 'Chicago' AND aid > 2"); again != base {
		t.Fatal("identical SQL from a distinct AST must share the compiled plan")
	}
	if folded := parse("select flno from FLIGHT where ORIGIN = 'Chicago' and AID > 2"); folded != base {
		t.Fatal("identifier case must fold into the same plan")
	}
	if labeled := parse("SELECT FLNO FROM Flight WHERE origin = 'Chicago' AND aid > 2"); labeled == base {
		t.Fatal("projection label case is observable and must not share a plan")
	}
	if reordered := parse("SELECT flno FROM Flight WHERE aid > 2 AND origin = 'Chicago'"); reordered != base {
		t.Fatal("commutative conjunct order must fold into the same plan")
	}
	if flipped := parse("SELECT flno FROM Flight WHERE origin = 'Chicago' AND 2 < aid"); flipped != base {
		t.Fatal("literal-first range spellings must orient onto the same plan")
	}
	if literal := parse("SELECT flno FROM Flight WHERE origin = 'Boston' AND aid > 2"); literal == base {
		t.Fatal("different literals must not share a plan")
	}
	if textCase := parse("SELECT flno FROM Flight WHERE origin = 'CHICAGO' AND aid > 2"); textCase == base {
		t.Fatal("text literal case is semantic and must not share a plan")
	}
}

// TestPlanCacheSurvivesIdentityChurn feeds one executor a fresh AST on
// every execution, cycling over 40 statements for more than three times
// the plan cache's bound. A fresh AST of a known statement adds no cache
// entry, so the cache never resets and every statement keeps the one
// program compiled for it first.
func TestPlanCacheSurvivesIdentityChurn(t *testing.T) {
	db := flightDB(t)
	ex := New(db)
	const statements = 40
	first := make([]*program, statements)
	for i := range 3*maxCachedPlans + statements {
		k := i % statements
		stmt, err := sqlparse.Parse(fmt.Sprintf("SELECT flno FROM Flight WHERE aid > %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ExecContext(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
		p, err := ex.compiled(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if first[k] == nil {
			first[k] = p
		} else if p != first[k] {
			t.Fatalf("execution %d: statement %d was recompiled", i, k)
		}
	}
}

// TestPlanCacheHitAllocGate: what a plan-cache hit costs does
// not depend on which statements the process keyed before. After more
// than 4,096 distinct statements have been keyed, a warm Run + Release
// of a statement first seen after them allocates exactly what running
// its held Plan does, which pays no key at all; so it allocates what it
// would in a fresh process.
func TestPlanCacheHitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	for i := range 5000 {
		_ = sqlnorm.CacheKey(sqlparse.MustParse(fmt.Sprintf("SELECT flno FROM Flight WHERE aid = %d", i)))
	}
	ctx := context.Background()
	ex := New(flightDB(t))
	stmt := sqlparse.MustParse("SELECT flno FROM Flight WHERE aid > 5000")
	pl, err := ex.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(run func() (Result, error)) float64 {
		return testing.AllocsPerRun(100, func() {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		})
	}
	held := allocs(func() (Result, error) { return pl.Run(ctx) })
	keyed := allocs(func() (Result, error) { return ex.Run(ctx, stmt) })
	if keyed != held {
		t.Errorf("warm Run + Release allocates %.1f/op, its held Plan %.1f/op: the cache hit allocates", keyed, held)
	}
}
