// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V). Each driver returns structured rows and can
// render the same text layout the paper prints; bench_test.go exposes one
// testing.B benchmark per artifact and cmd/benchmark drives them from the
// command line.
//
// Experiment index (the order of Registry):
//
//	fig1    accuracy vs beam size (Fig 1)
//	table1  overall EM/EX/TS, base vs +CycleSQL, five benchmarks (Table I)
//	table2  EX by Spider difficulty (Table II)
//	fig8a   average iterations (Fig 8a)
//	fig8b   inference latency with/without CycleSQL (Fig 8b)
//	fig9    feedback-quality ablation, CycleSQL vs SQL2NL (Fig 9)
//	table3  verifier-selection ablation (Table III)
//	table4  case-study explanations on world_1 (Table IV)
//	fig10   simulated user study (Fig 10)
//
// Tables I–III and Figs 8–9 are folds over one sweep (Limits.sweep),
// which runs a model's base translation and feedback loop over a dev
// split on the Batch worker pool (batch.go). Each example's outcome lands
// in its index slot and the slots fold in example order, so every
// accuracy and iteration column is bit-identical at every Limits.Workers
// count (measured-wall-clock columns — Fig 8b's overhead — vary run to
// run regardless of workers); the candidate-level Parallelism knob
// composes underneath it. Fig 1 sweeps the bare model's beams, with no
// loop. The package-level caches here (trained verifiers, distilled test
// suites) are mutex-guarded and shared freely across workers;
// datasets.Benchmark values are immutable after construction and safe to
// read from any goroutine, and core.Pipeline is safe for concurrent
// Translate calls.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/faultinject"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/storage"
)

// Limits keeps experiment runtime tractable; 0 means the full split.
type Limits struct {
	MaxDev      int
	MaxTrain    int
	TrainModels []string
	// Parallelism is handed to every pipeline's feedback loop (see
	// core.Pipeline.Parallelism): 0 or 1 keeps the paper's sequential
	// candidate loop, higher values verify beam candidates concurrently
	// with identical results.
	Parallelism int
	// Workers bounds how many dev examples each driver evaluates
	// concurrently (see Batch): 0 or 1 sweeps sequentially, higher values
	// overlap whole examples with identical per-example results and
	// bit-identical accuracy/iteration aggregates (measured wall-clock,
	// like Fig 8b's overhead column, varies with load as it always has).
	// Workers multiplies with Parallelism
	// — w workers each verifying p candidates run up to w*p executions at
	// once — so size the product to the core count (or, under simulated
	// inference latency, to the latency you want overlapped).
	Workers int
	// ExampleTimeout, when nonzero, is the per-example wall-clock budget
	// the batch runner enforces; an example that exceeds it fails with the
	// deadline error instead of stalling the sweep.
	ExampleTimeout time.Duration
	// Resilience, when non-nil, is handed to every pipeline the drivers
	// build (see core.Pipeline.Resilience): retries for transient stage
	// faults, per-stage circuit breakers, and shared reliability counters.
	Resilience *resilience.Policy
	// Faults configures deterministic chaos injection around every model
	// call of every pipeline the drivers build (the zero value injects
	// nothing and adds no wrappers). With Resilience retries enabled and
	// no retry-budget exhaustion, a faulted sweep's tables are
	// bit-identical to the fault-free sweep's — the chaos-parity property
	// the test suite locks in.
	Faults faultinject.Config
}

// Pipeline builds one loop pipeline under the limits: the fault injector
// wraps the model, verifier and feedback (when faults are enabled), and
// the parallelism knob and resilience policy apply uniformly. A nil fb
// means the default data-grounded feedback, set explicitly on the
// returned pipeline so the injector, and any caller that wraps
// p.Feedback, has a feedback to wrap. The experiment drivers, the
// CLIs and the HTTP serving layer all assemble their pipelines here, so
// the three surfaces cannot drift.
func (l Limits) Pipeline(model nl2sql.Model, verifier nli.Verifier, benchmark string, fb core.Feedback) *core.Pipeline {
	inj := faultinject.New(l.Faults)
	if fb == nil {
		fb = core.NewDataGrounded()
	}
	return &core.Pipeline{
		Model:       inj.WrapModel(model),
		Verifier:    inj.WrapVerifier(verifier),
		Feedback:    inj.WrapFeedback(fb),
		Benchmark:   benchmark,
		Parallelism: l.Parallelism,
		Resilience:  l.Resilience,
	}
}

// batch returns the cross-example worker pool the limits configure.
func (l Limits) batch() Batch {
	return Batch{Workers: l.Workers, Timeout: l.ExampleTimeout}
}

// DefaultLimits balances fidelity and runtime for the benchmark harness.
var DefaultLimits = Limits{
	MaxDev:   240,
	MaxTrain: 500,
	TrainModels: []string{
		"resdsql-3b", "resdsql-large", "gpt-3.5-turbo", "smbop", "picard-3b",
	},
}

// verifier training is the expensive shared step; cache per config key.
var (
	verifierMu    sync.Mutex
	verifierCache = map[string]*nli.Trained{}
)

// Verifier returns the frozen verifier trained on the Spider train split
// (the paper trains once and freezes it for all robustness benchmarks).
func Verifier(lim Limits) *nli.Trained { return trainedVerifier(lim, nil) }

// trainedVerifier trains a verifier on the premises fb generates (nil
// means data-grounded), once per training config and feedback, and
// caches it for every later caller.
func trainedVerifier(lim Limits, fb core.Feedback) *nli.Trained {
	if fb == nil {
		fb = core.NewDataGrounded()
	}
	key := fmt.Sprintf("%d-%s-%s", lim.MaxTrain, strings.Join(lim.TrainModels, ","), fb.Name())
	verifierMu.Lock()
	defer verifierMu.Unlock()
	if v, ok := verifierCache[key]; ok {
		return v
	}
	// Collection runs under a background context on purpose: cancelling
	// one experiment's context must not cache a partly trained verifier
	// for the rest.
	v := core.TrainVerifier(context.Background(), datasets.Spider(),
		core.TrainDataConfig{Models: lim.TrainModels, MaxExamples: lim.MaxTrain, Seed: 1, Feedback: fb},
		nli.TrainConfig{Seed: 2},
	)
	verifierCache[key] = v
	return v
}

// devSlice bounds a dev split.
func devSlice(b *datasets.Benchmark, lim Limits) []datasets.Example {
	dev := b.Dev
	if lim.MaxDev > 0 && len(dev) > lim.MaxDev {
		dev = dev[:lim.MaxDev]
	}
	return dev
}

// suiteFor caches distilled test suites per database (TS metric). The
// mutex covers only the map; each suite builds under its own sync.Once,
// so batch workers needing different databases distill concurrently and
// cached lookups never block behind an in-progress build.
var (
	suiteMu    sync.Mutex
	suiteCache = map[string]*suiteEntry{}
)

type suiteEntry struct {
	once  sync.Once
	suite *eval.Suite
}

func suiteFor(b *datasets.Benchmark, dbName string) *eval.Suite {
	key := b.Name + "/" + dbName
	suiteMu.Lock()
	e, ok := suiteCache[key]
	if !ok {
		e = &suiteEntry{}
		suiteCache[key] = e
	}
	suiteMu.Unlock()
	e.once.Do(func() { e.suite = eval.BuildSuite(b.DB(dbName), int64(len(key))*31+7) })
	return e.suite
}

// PairScores is one model on one benchmark, base vs +CycleSQL.
type PairScores struct {
	Model      string
	Benchmark  string
	Base, Loop eval.Scores
	// AvgIterations and overhead feed Fig 8.
	AvgIterations float64
	AvgOverheadMS float64
	// Retries and Degraded surface the sweep's resilience outcomes: total
	// transient re-attempts the loop healed from, and how many examples
	// returned a degraded (verify-breaker-open) Result. Both are zero on a
	// fault-free run and deterministic under deterministic fault injection.
	Retries  int
	Degraded int
}

// sweep is the one sweep behind Tables I–III and Figs 8–9. It runs
// modelName's loop over dev, the examples of b that the caller scores,
// through a pipeline built by Limits.Pipeline with feedback fb (nil means
// data-grounded). The LLMs propose five candidates, as the paper's
// chat-completion n, and the other models the pipeline's default. Each
// example's base (the top-1 translation) and loop Result are computed in
// one Batch slot, so ExampleTimeout budgets the whole example, and handed
// to score (nil scores nothing) in that slot, which writes only the
// example's index slot for the caller to fold in dev order. The returned
// PairScores carries the loop's averages and resilience counts, folded
// the same way; Base and Loop are left to the caller.
func (l Limits) sweep(ctx context.Context, b *datasets.Benchmark, dev []datasets.Example, modelName string, verifier nli.Verifier, fb core.Feedback,
	score func(ctx context.Context, i int, db *storage.Database, base *sqlast.SelectStmt, res *core.Result)) (PairScores, error) {
	p := l.Pipeline(nl2sql.MustByName(modelName), verifier, b.Name, fb)
	if isLLM(modelName) {
		p.BeamSize = 5
	}
	type loopCost struct {
		iterations int
		overheadMS float64
		retries    int
		degraded   bool
	}
	costs := make([]loopCost, len(dev))
	errs := l.batch().Run(ctx, len(dev), func(ctx context.Context, i int) error {
		ex := dev[i]
		db := b.DB(ex.DBName)
		base, err := p.BaselineContext(ctx, ex, db)
		if err != nil {
			return err
		}
		res, err := p.Translate(ctx, ex, db)
		if err != nil {
			return err
		}
		costs[i] = loopCost{res.Iterations, float64(res.Overhead.Microseconds()) / 1000.0, res.Retries, res.Degraded}
		if score != nil {
			score(ctx, i, db, base, res)
		}
		// Scoring under a fired deadline silently fails EX/TS; surface the
		// deadline as this example's error instead of recording bogus scores.
		return ctx.Err()
	})
	if err := firstError(dev, errs); err != nil {
		return PairScores{}, err
	}
	ps := PairScores{Model: modelName, Benchmark: b.Name}
	iterSum, overheadSum := 0.0, 0.0
	for _, c := range costs {
		iterSum += float64(c.iterations)
		overheadSum += c.overheadMS
		ps.Retries += c.retries
		if c.degraded {
			ps.Degraded++
		}
	}
	n := float64(len(dev))
	ps.AvgIterations, ps.AvgOverheadMS = iterSum/n, overheadSum/n
	return ps, nil
}

// EvaluateModel runs the base model and the CycleSQL pipeline over the
// benchmark's dev split and scores both with EM/EX/TS.
func EvaluateModel(ctx context.Context, b *datasets.Benchmark, modelName string, verifier nli.Verifier, lim Limits) (PairScores, error) {
	dev := devSlice(b, lim)
	type exampleScores struct{ baseEM, baseEX, baseTS, loopEM, loopEX, loopTS bool }
	outs := make([]exampleScores, len(dev))
	ps, err := lim.sweep(ctx, b, dev, modelName, verifier, nil, func(ctx context.Context, i int, db *storage.Database, base *sqlast.SelectStmt, res *core.Result) {
		gold, suite := dev[i].Gold, suiteFor(b, dev[i].DBName)
		outs[i] = exampleScores{
			baseEM: eval.EM(base, gold), baseEX: eval.EXContext(ctx, db, base, gold), baseTS: eval.TSContext(ctx, suite, base, gold),
			loopEM: eval.EM(res.Final, gold), loopEX: eval.EXContext(ctx, db, res.Final, gold), loopTS: eval.TSContext(ctx, suite, res.Final, gold),
		}
	})
	if err != nil {
		return PairScores{}, err
	}
	var baseC, loopC eval.Counter
	for _, o := range outs {
		baseC.Add(o.baseEM, o.baseEX, o.baseTS)
		loopC.Add(o.loopEM, o.loopEX, o.loopTS)
	}
	ps.Base, ps.Loop = baseC.Scores(), loopC.Scores()
	return ps, nil
}

// firstError surfaces the first (dev-order) per-example failure from a
// batch sweep, tagged with the example it belongs to.
func firstError(dev []datasets.Example, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("example %s: %w", dev[i].ID, err)
		}
	}
	return nil
}

// isLLM reports whether a model is a chat-completion LLM.
func isLLM(model string) bool {
	switch model {
	case "gpt-3.5-turbo", "gpt-4", "chess", "dail-sql":
		return true
	}
	return false
}

// Row is one printable result line.
type Row struct {
	Label  string
	Values []string
}

// Table is a printable experiment artifact.
type Table struct {
	Title   string
	Headers []string
	Rows    []Row
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers)+1)
	widths[0] = len("model")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		for i, v := range r.Values {
			if i+1 < len(widths) && len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	for i, h := range t.Headers {
		if len(h) > widths[i+1] {
			widths[i+1] = len(h)
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	pad := func(s string, w int) string {
		for len(s) < w {
			s += " "
		}
		return s
	}
	b.WriteString(pad("", widths[0]))
	for i, h := range t.Headers {
		b.WriteString("  ")
		b.WriteString(pad(h, widths[i+1]))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(pad(r.Label, widths[0]))
		for i, v := range r.Values {
			b.WriteString("  ")
			if i+1 < len(widths) {
				b.WriteString(pad(v, widths[i+1]))
			} else {
				b.WriteString(v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f", v) }

func delta(loop, base float64) string {
	d := loop - base
	switch {
	case d > 0.05:
		return fmt.Sprintf("%.1f(+%.1f)", loop, d)
	case d < -0.05:
		return fmt.Sprintf("%.1f(%.1f)", loop, d)
	default:
		return fmt.Sprintf("%.1f", loop)
	}
}
