package sqleval_test

import (
	"context"
	"testing"

	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
)

// The benchmarks below run the two TestPlanQualityGate scenarios under
// the timer; BENCH_PR10.json records their numbers. The warm-up execution
// compiles the plan and builds the lazily constructed indexes, so measured
// iterations see the planner's steady state.
func benchSkew(b *testing.B, sql string) {
	b.Helper()
	db := skewDB(b)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	ex := sqleval.New(db)
	if _, err := ex.ExecContext(context.Background(), stmt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExecContext(context.Background(), stmt); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	skewProbeSQL = "SELECT id FROM Ticket WHERE status = 'open' AND tenant = 17 ORDER BY id"
	skewBuildSQL = "SELECT O.oid FROM Orders AS O JOIN Customer AS C ON O.cid = C.cid WHERE C.score < 10 ORDER BY O.oid"
)

// BenchmarkCostProbeChoice: statistics pick the ~3-row tenant probe over
// the 1000-row status probe.
func BenchmarkCostProbeChoice(b *testing.B) { benchSkew(b, skewProbeSQL) }

// BenchmarkCostBuildSide: the selective range prefilters the keyed build
// side before hashing it.
func BenchmarkCostBuildSide(b *testing.B) { benchSkew(b, skewBuildSQL) }
