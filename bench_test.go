// Package cyclesql's root benchmarks regenerate every table and figure of
// the paper's evaluation (one testing.B benchmark per artifact) plus the
// ablation benches ARCHITECTURE.md "Substitutions" names. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints its artifact once and reports headline numbers as
// benchmark metrics so regressions show up in benchstat diffs.
package cyclesql

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/experiments"
	"cyclesql/internal/explain"
	"cyclesql/internal/faultinject"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/nn"
	"cyclesql/internal/provenance"
	"cyclesql/internal/provgraph"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
)

// benchLimits keeps the full harness tractable under testing.B (the whole
// suite must fit the go-test timeout; pass -timeout 45m for comfort). The
// cmd/benchmark binary accepts larger budgets via -dev/-train.
var benchLimits = experiments.Limits{
	MaxDev:      60,
	MaxTrain:    300,
	TrainModels: []string{"resdsql-3b", "resdsql-large", "gpt-3.5-turbo", "picard-3b"},
}

func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	var table *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = e.Run(context.Background(), benchLimits)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(table.String())
	return table
}

// firstFloat parses the leading float of a cell like "82.0(+2.6)".
func firstFloat(cell string) float64 {
	end := 0
	for end < len(cell) && (cell[end] == '.' || cell[end] >= '0' && cell[end] <= '9') {
		end++
	}
	v, _ := strconv.ParseFloat(cell[:end], 64)
	return v
}

func BenchmarkFig1BeamAccuracy(b *testing.B)     { runExperiment(b, "fig1") }
func BenchmarkTable2Difficulty(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkFig8aIterations(b *testing.B)      { runExperiment(b, "fig8a") }
func BenchmarkFig8bLatency(b *testing.B)         { runExperiment(b, "fig8b") }
func BenchmarkFig9FeedbackAblation(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkTable4CaseStudy(b *testing.B)      { runExperiment(b, "table4") }
func BenchmarkFig10UserStudy(b *testing.B)       { runExperiment(b, "fig10") }

func BenchmarkTable1Overall(b *testing.B) {
	table := runExperiment(b, "table1")
	// Report the headline RESDSQL-3B Spider EX pair as metrics.
	for i, row := range table.Rows {
		if row.Label == "resdsql-3b" && row.Values[0] == "spider" && row.Values[1] == "base" {
			b.ReportMetric(firstFloat(row.Values[3]), "baseEX%")
			b.ReportMetric(firstFloat(table.Rows[i+1].Values[3]), "loopEX%")
			break
		}
	}
}

func BenchmarkTable3Verifiers(b *testing.B) {
	table := runExperiment(b, "table3")
	for _, row := range table.Rows {
		if row.Label == "+cyclesql (oracle verifier)" {
			b.ReportMetric(firstFloat(row.Values[1]), "oracleEX%")
		}
	}
}

// ---- Ablation benches (ARCHITECTURE.md "Substitutions") ----

// BenchmarkAblationFocalLoss compares the paper's focal loss against plain
// weighted cross-entropy on identical verifier training data, reporting
// held-out pair accuracy for both.
func BenchmarkAblationFocalLoss(b *testing.B) {
	bench := datasets.Spider()
	pairs := core.BuildTrainingPairs(context.Background(), bench, core.TrainDataConfig{
		Models: benchLimits.TrainModels[:3], MaxExamples: 300, Seed: 1,
	})
	cut := len(pairs) * 85 / 100
	var focalAcc, ceAcc float64
	for i := 0; i < b.N; i++ {
		focal := nli.Train(pairs[:cut], nli.TrainConfig{Seed: 2, Loss: nn.PaperFocal})
		ce := nli.Train(pairs[:cut], nli.TrainConfig{Seed: 2, Loss: nn.CrossEntropy{WPos: 2.7, WNeg: 1.0}})
		focalAcc = nli.Accuracy(context.Background(), focal, pairs[cut:])
		ceAcc = nli.Accuracy(context.Background(), ce, pairs[cut:])
	}
	b.ReportMetric(100*focalAcc, "focalAcc%")
	b.ReportMetric(100*ceAcc, "ceAcc%")
}

// BenchmarkAblationRule2 compares the paper's Rule 2 (project referenced
// columns + primary keys) against projecting all columns, measuring the
// provenance width that drives explanation conciseness.
func BenchmarkAblationRule2(b *testing.B) {
	bench := datasets.Spider()
	dev := bench.Dev[:100]
	var rule2Cols, allCols, n float64
	for i := 0; i < b.N; i++ {
		rule2Cols, allCols, n = 0, 0, 0
		for _, ex := range dev {
			db := bench.DB(ex.DBName)
			rel, err := sqleval.New(db).ExecContext(context.Background(), ex.Gold)
			if err != nil || rel.NumRows() == 0 {
				continue
			}
			prov, err := provenance.NewTracker(db).TrackContext(context.Background(), ex.Gold, rel, 0)
			if err != nil || prov.Empty {
				continue
			}
			for _, part := range prov.Parts {
				if part.Table == nil {
					continue
				}
				n++
				rule2Cols += float64(part.Table.NumCols())
				// The all-columns alternative projects every column of
				// every referenced table.
				total := 0
				for _, ref := range part.Core.Tables() {
					if t := db.Schema.Table(ref.Name); t != nil {
						total += len(t.Columns)
					}
				}
				allCols += float64(total)
			}
		}
	}
	if n > 0 {
		b.ReportMetric(rule2Cols/n, "rule2Cols/query")
		b.ReportMetric(allCols/n, "allCols/query")
	}
}

// BenchmarkAblationJoinSemantics measures how often the pre-defined graph
// pool resolves join semantics versus falling back to table names.
func BenchmarkAblationJoinSemantics(b *testing.B) {
	bench := datasets.Spider()
	var matched, joins float64
	for i := 0; i < b.N; i++ {
		matched, joins = 0, 0
		for _, ex := range bench.Dev {
			db := bench.DB(ex.DBName)
			for _, coreStmt := range ex.Gold.Cores {
				var tables []string
				for _, t := range coreStmt.Tables() {
					if t.Name != "" {
						tables = append(tables, t.Name)
					}
				}
				if len(tables) < 2 {
					continue
				}
				joins++
				js := provgraph.DiscoverJoin(db.Schema, tables)
				if js.Topology != "" {
					matched++
				}
			}
		}
	}
	if joins > 0 {
		b.ReportMetric(100*matched/joins, "poolMatch%")
	}
}

// BenchmarkExplanationGeneration measures the per-result cost of the full
// provenance -> annotation -> graph -> NL pipeline (the overhead Fig 8b
// attributes to CycleSQL).
func BenchmarkExplanationGeneration(b *testing.B) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	rel, err := sqleval.New(db).ExecContext(context.Background(), ex.Gold)
	if err != nil {
		b.Fatal(err)
	}
	e := explain.New(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainContext(context.Background(), ex.Gold, rel, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierInference measures single-pair NLI inference cost.
func BenchmarkVerifierInference(b *testing.B) {
	v := experiments.Verifier(experiments.Limits{MaxTrain: 200, TrainModels: []string{"resdsql-3b", "gpt-3.5-turbo"}})
	premise := nli.Premise{
		Explanation: "The query returns a result set with one column of aggregation type (count) and one row, filtered by name equal to Airbus A340-300. For aircraft with flight, there are 2 flights in total.",
		SQL:         "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'",
		Result:      "1 rows ; 2",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Score("Show all flight numbers with aircraft Airbus A340-300.", premise)
	}
}

// BenchmarkProvenanceTracking measures the query-rewriting tracker alone
// (one-shot API: a fresh tracker per call, as a single explanation pays).
func BenchmarkProvenanceTracking(b *testing.B) {
	db := datasets.FlightDB()
	stmt := mustParse(b, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := provenance.NewTracker(db).TrackContext(context.Background(), stmt, rel, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvenanceTrackingReused measures the tracker as the CycleSQL
// loop holds it — one Tracker per database — so the rewritten provenance
// statement and its compiled plan are reused across calls.
func BenchmarkProvenanceTrackingReused(b *testing.B) {
	db := datasets.FlightDB()
	stmt := mustParse(b, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		b.Fatal(err)
	}
	tr := provenance.NewTracker(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrackContext(context.Background(), stmt, rel, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func mustParse(b *testing.B, sql string) *sqlast.SelectStmt {
	b.Helper()
	stmt, err := parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	return stmt
}

// ---- Feedback-loop parallelism benches (PR 3, BENCH_PR3.json) ----

// loopBench measures the verification wall-clock of the full feedback
// loop at beam 8 over a fixed dev slice, with a reject-all verifier so
// every candidate is examined (the loop's worst case, the regime Fig 8a's
// iteration counts bound). It reports the summed Result.Overhead — the
// loop cost excluding model inference — as overhead-us/translate.
// verifyLatency, when nonzero, charges each Verify call the documented
// per-inference latency the way Fig 8b charges model inference (GPU
// wall-clock is unavailable offline): the paper's verifier is a T5-Large
// forward pass, so in deployment the loop overlaps real inference waits,
// which is exactly what the parallel loop exploits.
func loopBench(b *testing.B, parallelism int, verifyLatency time.Duration) {
	bench := datasets.Spider()
	dev := bench.Dev[:16]
	var reject nli.Verifier = nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	if verifyLatency > 0 {
		// nli.Latency is context-aware, so a candidate the loop cancels
		// abandons its simulated inference mid-wait, as in deployment.
		reject = nli.Latency{V: reject, D: verifyLatency}
	}
	p := &core.Pipeline{
		Model:       nl2sql.MustByName("resdsql-3b"),
		Verifier:    reject,
		Benchmark:   bench.Name,
		Parallelism: parallelism,
	}
	var overhead time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range dev {
			res, err := p.Translate(context.Background(), ex, bench.DB(ex.DBName))
			if err != nil {
				b.Fatal(err)
			}
			if res.Iterations != len(res.Candidates) {
				b.Fatalf("reject-all must exhaust the beam, examined %d/%d", res.Iterations, len(res.Candidates))
			}
			overhead += res.Overhead
		}
	}
	b.ReportMetric(float64(overhead.Microseconds())/float64(b.N*len(dev)), "overhead-us/translate")
}

func BenchmarkTranslateLoopSequential(b *testing.B) { loopBench(b, 1, 0) }
func BenchmarkTranslateLoopParallel4(b *testing.B)  { loopBench(b, 4, 0) }
func BenchmarkTranslateLoopParallel8(b *testing.B)  { loopBench(b, 8, 0) }

// The SimVerify variants charge each verification 2ms of simulated
// inference latency (the Fig 8b substitution applied to the verifier);
// the parallel loop overlaps those waits across candidates.
func BenchmarkTranslateLoopSimVerifySequential(b *testing.B) { loopBench(b, 1, 2*time.Millisecond) }
func BenchmarkTranslateLoopSimVerifyParallel4(b *testing.B)  { loopBench(b, 4, 2*time.Millisecond) }
func BenchmarkTranslateLoopSimVerifyParallel8(b *testing.B)  { loopBench(b, 8, 2*time.Millisecond) }

// ---- Batched sweep benches (PR 4, BENCH_PR4.json) ----

// sweepBench measures the end-to-end wall-clock of sweeping a fixed dev
// slice through the feedback loop on the batched experiment runner —
// the workload the table-regeneration drivers run per model. Like
// loopBench, verifyLatency charges each Verify call the documented
// per-inference latency (Fig 8b's substitution applied to the verifier);
// the batch runner overlaps those waits across examples, which is where
// the worker-count speedup comes from on boxes with fewer cores than
// workers. The reject-all verifier exhausts every beam, making the sweep
// cost deterministic across worker counts.
func sweepBench(b *testing.B, workers int, verifyLatency time.Duration) {
	bench := datasets.Spider()
	dev := bench.Dev[:24]
	var reject nli.Verifier = nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	if verifyLatency > 0 {
		reject = nli.Latency{V: reject, D: verifyLatency}
	}
	p := &core.Pipeline{Model: nl2sql.MustByName("resdsql-3b"), Verifier: reject, Benchmark: bench.Name}
	batch := experiments.Batch{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]*core.Result, len(dev))
		errs := batch.Run(context.Background(), len(dev), func(ctx context.Context, j int) error {
			res, err := p.Translate(ctx, dev[j], bench.DB(dev[j].DBName))
			if err != nil {
				return err
			}
			results[j] = res
			return nil
		})
		for j, err := range errs {
			if err != nil {
				b.Fatalf("example %d: %v", j, err)
			}
			if results[j].Iterations != len(results[j].Candidates) {
				b.Fatalf("reject-all must exhaust the beam on example %d", j)
			}
		}
	}
}

func BenchmarkSweepWorkers1(b *testing.B) { sweepBench(b, 1, 0) }
func BenchmarkSweepWorkers4(b *testing.B) { sweepBench(b, 4, 0) }
func BenchmarkSweepWorkers8(b *testing.B) { sweepBench(b, 8, 0) }

// The SimVerify variants charge each verification 2ms of simulated
// inference latency; 8 workers overlap eight examples' verifier waits,
// cutting sweep wall-clock roughly by the worker count until cores (for
// the CPU-bound part) or the per-example critical path binds.
func BenchmarkSweepSimVerifyWorkers1(b *testing.B) { sweepBench(b, 1, 2*time.Millisecond) }
func BenchmarkSweepSimVerifyWorkers4(b *testing.B) { sweepBench(b, 4, 2*time.Millisecond) }
func BenchmarkSweepSimVerifyWorkers8(b *testing.B) { sweepBench(b, 8, 2*time.Millisecond) }

// ---- Resilience and chaos benches (PR 6, BENCH_PR6.json) ----

// resilientLoopBench is loopBench with the resilience layer armed — a
// retry budget, per-stage breakers and a collector on every stage — and,
// when faults has enabled rates, deterministic chaos injected around
// every model call. The fault-free variants price the policy machinery
// itself on the worst-case loop (every candidate examined); the chaos
// variants price a 20% transient-fault rate healed by retries. It reports
// how many retries each translate burned alongside the loop overhead.
func resilientLoopBench(b *testing.B, parallelism int, faults faultinject.Config) {
	bench := datasets.Spider()
	dev := bench.Dev[:16]
	var reject nli.Verifier = nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	inj := faultinject.New(faults)
	p := &core.Pipeline{
		Model:       inj.WrapModel(nl2sql.MustByName("resdsql-3b")),
		Verifier:    inj.WrapVerifier(reject),
		Feedback:    inj.WrapFeedback(core.NewDataGrounded()),
		Benchmark:   bench.Name,
		Parallelism: parallelism,
		Resilience: &resilience.Policy{
			Retry:     resilience.Retry{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 7},
			Breaker:   resilience.BreakerConfig{Threshold: 5, Cooldown: 50 * time.Millisecond},
			Collector: &resilience.Collector{},
		},
	}
	var overhead time.Duration
	retries := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range dev {
			res, err := p.Translate(context.Background(), ex, bench.DB(ex.DBName))
			if err != nil {
				b.Fatal(err)
			}
			if res.Iterations != len(res.Candidates) {
				b.Fatalf("reject-all must exhaust the beam, examined %d/%d", res.Iterations, len(res.Candidates))
			}
			if res.Degraded {
				b.Fatal("nothing may degrade when every fault heals")
			}
			overhead += res.Overhead
			retries += res.Retries
		}
	}
	b.ReportMetric(float64(overhead.Microseconds())/float64(b.N*len(dev)), "overhead-us/translate")
	b.ReportMetric(float64(retries)/float64(b.N*len(dev)), "retries/translate")
}

// benchChaos mirrors the chaos-parity suite's locked fault weather (see
// internal/experiments/chaos_test.go).
var benchChaos = faultinject.Config{
	Seed:      7,
	ErrorRate: 0.2,
	HangRate:  0.05, HangTimeout: time.Millisecond,
	PanicRate:   0.05,
	LatencyRate: 0.1, Latency: 200 * time.Microsecond,
}

// The Resilient variants run the full policy machinery with zero faults:
// their delta against BenchmarkTranslateLoop{Sequential,Parallel4} is the
// price of arming retries and breakers on a healthy stack.
func BenchmarkTranslateLoopResilientSequential(b *testing.B) {
	resilientLoopBench(b, 1, faultinject.Config{})
}
func BenchmarkTranslateLoopResilientParallel4(b *testing.B) {
	resilientLoopBench(b, 4, faultinject.Config{})
}

// The Chaos variants inject the parity suite's fault weather and heal it
// with retries — the overhead of surviving a 20% transient-fault rate.
func BenchmarkTranslateLoopChaosSequential(b *testing.B) { resilientLoopBench(b, 1, benchChaos) }
func BenchmarkTranslateLoopChaosParallel4(b *testing.B)  { resilientLoopBench(b, 4, benchChaos) }
