package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cyclesql/internal/cliconf"
	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/serve"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

const (
	// modelName is the simulated translator every workload's beams come
	// from (the serving layer's default model).
	modelName = "resdsql-3b"
	beamSize  = 8
	// serveVerifyLatency is the simulated verifier inference cost on the
	// serve workloads (the paper's Fig 8b substitution).
	serveVerifyLatency = 2 * time.Millisecond
	// setupReps is how many times each workload's own set-up runs; setup_s
	// reports the median.
	setupReps = 3
)

// workload is one load shape the benchmark runs.
type workload struct {
	name string
	// serve routes requests through serve.Server in an open loop instead
	// of calling Pipeline.Translate from one closed-loop client.
	serve bool
	// scale is the data replication factor (1 = the original dev data).
	scale int
	// writes runs a writer that rewrites the tenants' live stores.
	writes bool
	// ladder steps the server through ladderRates to find max_rate_rps.
	ladder bool
}

var workloads = []workload{
	{name: "spider-dev", scale: 1},
	{name: "spider-sf5", scale: 5},
	{name: "serve-open", serve: true, scale: 1, ladder: true},
	{name: "serve-writes", serve: true, scale: 1, writes: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// loopLimits configures the closed-loop workloads: the paper's sequential
// loop with no resilience policy (cliconf defaults).
func loopLimits() experiments.Limits { return cliconf.Default().Build().Limits }

// serveLimits matches `cmd/serve -parallel 4 -retries 3 -breaker 5`.
func serveLimits() experiments.Limits {
	o := cliconf.Default()
	o.Parallel, o.Retries, o.Breaker = 4, 3, 5
	return o.Build().Limits
}

// base is the set-up every workload shares: the Spider benchmark and the
// verifier cmd/serve trains by default. Both are cached process-wide by
// the packages that build them, so base is built once per process.
type base struct {
	bench    *datasets.Benchmark
	verifier *nli.Trained
	// took is the process CPU time building them took.
	took time.Duration
}

func newBase() *base {
	start := cpuTime()
	bench := datasets.Spider()
	v := experiments.Verifier(cliconf.Default().Build().Limits)
	return &base{bench: bench, verifier: v, took: cpuTime() - start}
}

// env is one workload's prepared inputs and warm system under test.
type env struct {
	w   workload
	dev []datasets.Example
	// dbs maps each dev database name to the store the workload runs on:
	// the original, a replica, or (serve workloads) a private clone whose
	// live store the writer may rewrite.
	dbs map[string]*storage.Database
	// beams replays the simulator's beam-8 candidates computed at set-up.
	beams *replayModel
	// verifier is what the workload's loop consults per candidate.
	verifier nli.Verifier
	// pipeline is the warm closed-loop pipeline (loop workloads only).
	pipeline *core.Pipeline
	// server and spans serve the serve workloads: spans is the tracer
	// behind the server's verifier seam, off until the traced phase.
	server *serve.Server
	spans  *tracer
	// refs are the reference results in dev order, want their outcomes and
	// exOK whether each reference answer is execution-correct.
	refs []*core.Result
	want []outcome
	exOK []bool
	// setup is the median workload set-up time plus the shared base time,
	// both in process CPU time.
	setup time.Duration
}

// prepare builds the workload's inputs setupReps times, keeps the last,
// and records base time plus the median repetition as the set-up time.
// Set-up time is process CPU time, like cpu_ms_per_request: on a shared
// host the middle half of ten runs' wall times for the same set-up can
// span 40% of their median.
func prepare(ctx context.Context, b *base, w workload) (*env, error) {
	var e *env
	took := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		start := cpuTime()
		var err error
		if e, err = prepareOnce(ctx, b, w); err != nil {
			return nil, err
		}
		took = append(took, (cpuTime() - start).Seconds())
	}
	e.setup = b.took + time.Duration(median(took)*float64(time.Second))
	return e, nil
}

func prepareOnce(ctx context.Context, b *base, w workload) (*env, error) {
	e := &env{w: w, dev: b.bench.Dev, dbs: map[string]*storage.Database{}}
	for _, ex := range e.dev {
		if e.dbs[ex.DBName] != nil {
			continue
		}
		src := b.bench.DB(ex.DBName)
		switch {
		case w.scale > 1:
			db, err := replicate(src, w.scale)
			if err != nil {
				return nil, err
			}
			e.dbs[ex.DBName] = db
		case w.serve:
			e.dbs[ex.DBName] = src.Clone()
		default:
			e.dbs[ex.DBName] = src
		}
	}
	sim := nl2sql.MustByName(modelName)
	beams, err := newReplayModel(sim, b.bench.Name, e.dev, e.dbs)
	if err != nil {
		return nil, err
	}
	e.beams = beams
	if w.serve {
		err = e.prepareServe(ctx, b, sim)
	} else {
		err = e.prepareLoop(ctx, b, sim)
	}
	if err != nil {
		return nil, err
	}
	e.exOK = make([]bool, len(e.dev))
	for i, ex := range e.dev {
		e.exOK[i] = eval.EXContext(ctx, e.dbs[ex.DBName], e.refs[i].Final, ex.Gold)
	}
	if got, want := digest(e.dev, e.want), wantDigests[w.name]; got != want {
		return nil, fmt.Errorf("output digest %s, recorded %s", got, want)
	}
	return e, nil
}

// prepareLoop builds the closed-loop pipeline on replayed beams. Its
// reference pass doubles as the warm-up pass. On the original data it
// also checks that replayed beams give the stock simulator's results.
func (e *env) prepareLoop(ctx context.Context, b *base, sim nl2sql.Model) error {
	e.verifier = b.verifier
	lim := loopLimits()
	e.pipeline = lim.Pipeline(e.beams, e.verifier, b.bench.Name, nil)
	refs, err := translateAll(ctx, e.pipeline, e.dev, e.dbs)
	if err != nil {
		return err
	}
	e.refs, e.want = refs, outcomes(refs)
	if e.w.scale > 1 {
		return nil
	}
	stock, err := translateAll(ctx, lim.Pipeline(sim, e.verifier, b.bench.Name, nil), e.dev, e.dbs)
	if err != nil {
		return err
	}
	for i, r := range stock {
		if got := outcomeOf(r); got != e.want[i] {
			return fmt.Errorf("example %s: replayed beam gives %+v, stock simulator %+v", e.dev[i].ID, e.want[i], got)
		}
	}
	return nil
}

// prepareServe computes the reference answers with a direct
// Pipeline.Translate under the server's Limits, starts the server on the
// private clones, and warms it with one pass over the dev set whose
// answers must match the references.
func (e *env) prepareServe(ctx context.Context, b *base, sim nl2sql.Model) error {
	e.verifier = nli.Latency{V: b.verifier, D: serveVerifyLatency}
	lim := serveLimits()
	// The reference skips the simulated wait: Latency never changes a verdict.
	refs, err := translateAll(ctx, lim.Pipeline(sim, b.verifier, b.bench.Name, nil), e.dev, e.dbs)
	if err != nil {
		return err
	}
	e.refs, e.want = refs, outcomes(refs)
	e.spans = &tracer{}
	e.server = serve.New(serve.Config{
		Bench:        &datasets.Benchmark{Name: b.bench.Name, Databases: e.dbs, Dev: e.dev},
		Verifier:     tracedVerifier{v: e.verifier, t: e.spans},
		Limits:       lim,
		DefaultModel: modelName,
		Beam:         beamSize,
		MaxInflight:  8,
		MaxQueue:     64,
	})
	c := newClient(e.server.Handler(), e.dev)
	// Four clients at a time stay inside the server's eight slots, so the
	// warm-up is never shed.
	errs := experiments.Batch{Workers: 4}.Run(ctx, len(e.dev), func(ctx context.Context, i int) error {
		if r := c.translate(ctx, i); r.status != http.StatusOK || !e.want[i].matches(r.resp) {
			return fmt.Errorf("warm-up answer for %s: status %d %+v, want %+v", e.dev[i].ID, r.status, r.resp, e.want[i])
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// translateAll runs p over dev in order, one example at a time.
func translateAll(ctx context.Context, p *core.Pipeline, dev []datasets.Example, dbs map[string]*storage.Database) ([]*core.Result, error) {
	out := make([]*core.Result, len(dev))
	for i, ex := range dev {
		r, err := p.Translate(ctx, ex, dbs[ex.DBName])
		if err != nil {
			return nil, fmt.Errorf("translate %s: %w", ex.ID, err)
		}
		out[i] = r
	}
	return out, nil
}

// outcome is the part of a translation the correctness gate compares.
type outcome struct {
	SQL        string
	Verified   bool
	Iterations int
	Degraded   bool
	// ErrStages lists the stage of every candidate that failed, in beam
	// order ("" when none did).
	ErrStages string
}

func outcomeOf(r *core.Result) outcome {
	var stages []string
	for _, se := range r.Errors {
		if !se.IsZero() {
			stages = append(stages, string(se.Stage))
		}
	}
	return outcome{SQL: r.FinalSQL, Verified: r.Verified, Iterations: r.Iterations, Degraded: r.Degraded, ErrStages: strings.Join(stages, ",")}
}

func outcomes(rs []*core.Result) []outcome {
	out := make([]outcome, len(rs))
	for i, r := range rs {
		out[i] = outcomeOf(r)
	}
	return out
}

// matches reports whether a serve response carries this outcome; responses
// do not expose candidate errors, so ErrStages is not compared.
func (o outcome) matches(r serve.TranslateResponse) bool {
	return r.SQL == o.SQL && r.Verified == o.Verified && r.Iterations == o.Iterations && r.Degraded == o.Degraded
}

// digest hashes the per-example outcomes in dev order.
func digest(dev []datasets.Example, outs []outcome) string {
	h := sha256.New()
	for i, o := range outs {
		fmt.Fprintf(h, "%s\t%s\t%t\t%d\t%t\t%s\n", dev[i].ID, o.SQL, o.Verified, o.Iterations, o.Degraded, o.ErrStages)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replayModel is an nl2sql.Model that returns beams computed once at
// set-up. Each call hands out fresh clones, so the executor sees new AST
// pointers and takes its canonical-SQL plan-cache path as it would with a
// live model, while the simulator's own cost stays out of the profile.
type replayModel struct {
	name    string
	latency time.Duration
	beams   map[string][]nl2sql.Candidate
}

func newReplayModel(sim nl2sql.Model, benchmark string, dev []datasets.Example, dbs map[string]*storage.Database) (*replayModel, error) {
	m := &replayModel{name: sim.Name() + "-replay", latency: sim.BaseLatency(), beams: make(map[string][]nl2sql.Candidate, len(dev))}
	for _, ex := range dev {
		if _, dup := m.beams[ex.ID]; dup {
			return nil, fmt.Errorf("duplicate example id %s", ex.ID)
		}
		m.beams[ex.ID] = sim.Translate(benchmark, ex, dbs[ex.DBName], beamSize)
	}
	return m, nil
}

func (m *replayModel) Name() string               { return m.name }
func (m *replayModel) BaseLatency() time.Duration { return m.latency }

func (m *replayModel) Translate(_ string, ex datasets.Example, _ *storage.Database, k int) []nl2sql.Candidate {
	src := m.beams[ex.ID]
	if k < len(src) {
		src = src[:k]
	}
	out := make([]nl2sql.Candidate, len(src))
	for i, c := range src {
		out[i] = nl2sql.Candidate{SQL: c.SQL, Stmt: c.Stmt.Clone(), Score: c.Score}
	}
	return out
}

// replicate returns a database holding k copies of src's rows, built with
// NewDatabase and Insert. Copy 0 is src's data unchanged. Copy r ≥ 1
// shifts every integer key column (primary keys and both ends of every
// foreign key) by r·10⁶ and suffixes every text key with "#r", so joins
// stay one-to-one within a copy and every literal a gold query names
// still matches in copy 0.
func replicate(src *storage.Database, k int) (*storage.Database, error) {
	s := src.Schema
	isKey := map[string]bool{}
	for _, t := range s.Tables {
		for _, c := range t.Columns {
			if c.PrimaryKey {
				isKey[strings.ToLower(t.Name+"."+c.Name)] = true
			}
		}
	}
	for _, fk := range s.ForeignKeys {
		isKey[strings.ToLower(fk.Table+"."+fk.Column)] = true
		isKey[strings.ToLower(fk.RefTable+"."+fk.RefColumn)] = true
	}
	out := storage.NewDatabase(s)
	for r := 0; r < k; r++ {
		for _, t := range s.Tables {
			for _, row := range src.Table(t.Name).Rows {
				cp := row.Clone()
				for i, v := range cp {
					if r == 0 || v.IsNull() || !isKey[strings.ToLower(t.Name+"."+t.Columns[i].Name)] {
						continue
					}
					switch v.Kind() {
					case sqltypes.KindInt:
						cp[i] = sqltypes.NewInt(v.Int() + int64(r)*1_000_000)
					case sqltypes.KindText:
						cp[i] = sqltypes.NewText(v.Text() + "#" + strconv.Itoa(r))
					}
				}
				if err := out.Insert(t.Name, cp); err != nil {
					return nil, fmt.Errorf("replicate %s: %w", s.Name, err)
				}
			}
		}
	}
	return out, nil
}
