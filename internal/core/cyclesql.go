// Package core implements CycleSQL itself (paper Fig 3): a plug-and-play
// iterative feedback loop around any end-to-end NL2SQL model. For each
// candidate translation, the loop executes the SQL, tracks the provenance
// of a sampled result tuple, enriches it with operation-level semantics,
// generates a data-grounded NL explanation, and asks the NLI verifier
// whether the explanation entails the original question. The first
// candidate whose explanation validates becomes the translation; if none
// validates, the model's top-1 candidate is returned (paper §V-A1,
// inference settings).
//
// Concurrency: a Pipeline is safe for concurrent Translate calls, and the
// Parallelism knob additionally verifies the beam candidates of one call
// concurrently (see Pipeline.Parallelism). Candidates are independent
// until one validates, so speculative parallel verification commits
// results in beam order and returns a Result identical to the sequential
// loop — Iterations still counts candidates in beam order (paper Fig 8a).
// The stock Feedback and Verifier implementations are safe for concurrent
// use; custom ones must be too before raising Parallelism above 1.
//
// Resilience: a Pipeline optionally carries a resilience.Policy that
// wraps every stage of the loop — translate, execute, explain, verify —
// with retry/backoff for transient infrastructure faults and a per-stage
// circuit breaker (see internal/resilience). Every stage runs through one
// function, Pipeline.stage, whatever the policy and the parallelism, and
// panics inside it are recovered into typed StageErrors, so a crashing
// model call fails one candidate (or, in the beam, one translation)
// instead of the process. When the verify breaker is open the loop
// degrades gracefully: it stops burning candidates against a dead
// verifier and returns the best-scored unverified candidate with
// Result.Degraded set. A nil policy makes every stage a single attempt
// with no breakers, at zero added allocation.
//
// Cancellation: Translate takes a context.Context that threads through
// every candidate's execute → explain chain down to the SQL executor's
// inner loops (sqleval.Executor.Run), so cancelling it — the
// batch experiment driver's per-example timeout, or a caller shutting
// down — aborts the loop mid-query and Translate returns the context's
// error. Above Parallelism 1 the loop derives a per-call context that it
// cancels as soon as a candidate validates, which aborts the in-flight
// speculative work of later candidates — SQL executions mid-query, and a
// verifier's simulated inference mid-wait (nli.Verifier is context-first)
// — instead of letting them run to completion; their discarded outcomes
// never affect the Result, so the beam-order parity guarantee above is
// unchanged.
package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Feedback generates the self-provided feedback (the premise) for one
// candidate translation. The default is CycleSQL's data-grounded
// explanation; the SQL2NL ablation (paper Fig 9) plugs in a query-surface
// back-translation instead. Premise must honor ctx: the loop cancels it
// to abort speculative feedback generation for candidates that can no
// longer win. The loop releases result as soon as Premise returns, so an
// implementation must not keep result, its rows or its values afterwards:
// the returned premise has to copy out whatever it needs.
type Feedback interface {
	Name() string
	Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error)
}

// DataGrounded is CycleSQL's own feedback: provenance-based explanations.
// Its zero value is ready to use and keeps one explainer per database
// alive across candidates — and across Translate calls that interleave
// databases, as the experiment drivers do — so provenance queries reuse
// compiled statements. Use it by pointer and do not copy it after first
// use.
type DataGrounded struct {
	// explainers is bounded because test-suite distillation can sweep many
	// short-lived database clones through one feedback, and keeps only the
	// newest snapshot view of a live store so stale views can be collected.
	explainers boundedCache[*explain.Explainer]
}

// NewDataGrounded returns a DataGrounded feedback, the same as
// &DataGrounded{}.
func NewDataGrounded() *DataGrounded { return &DataGrounded{} }

// Name implements Feedback.
func (*DataGrounded) Name() string { return "cyclesql" }

func (d *DataGrounded) explainer(db *storage.Database) *explain.Explainer {
	return d.explainers.get(db, explain.New)
}

// Premise implements Feedback. It is safe for concurrent use: the cached
// explainers are concurrency-safe and the cache hands concurrent callers
// one shared explainer per database.
func (d *DataGrounded) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	e := d.explainer(db)
	// The paper explains one representative result tuple; the first row is
	// the deterministic choice (training randomizes, inference does not).
	exp, err := e.ExplainContext(ctx, stmt, result, 0)
	if err != nil {
		return nli.Premise{}, err
	}
	// The text is composed, so the provenance tables are done with.
	exp.Prov.Release()
	return nli.Premise{
		Explanation: exp.Text,
		SQL:         nli.SQLOneLine(stmt.SQL()),
		Result:      resultSnippet(result),
	}, nil
}

// Result is the outcome of one CycleSQL translation.
type Result struct {
	Final      *sqlast.SelectStmt
	FinalSQL   string
	Verified   bool
	Iterations int // candidates examined (paper Fig 8a)
	Candidates []nl2sql.Candidate
	// Premises holds the feedback generated per examined candidate, in
	// order; Premises[i] corresponds to Candidates[i].
	Premises []nli.Premise
	// Errors records, per examined candidate, why no verdict could be
	// reached (the zero StageError when the chain completed): the failing
	// stage, the final attempt's error, and how many attempts the retry
	// policy consumed — only the final attempt is kept, so a high-fault
	// chaos sweep cannot grow the Result without bound. Errors[i]
	// corresponds to Candidates[i]. A premise-less candidate can still
	// become Final through the top-1 fallback, so drivers use this to
	// distinguish "failed to execute" from "examined but not verified".
	Errors []resilience.StageError
	// Retries counts the transient re-attempts the resilience policy
	// consumed across the translate stage and the examined candidates —
	// the faults that were retried away and so appear nowhere in Errors.
	// It is deterministic for a deterministic fault source, so parity
	// suites can compare it across parallelism levels.
	Retries int
	// Degraded marks a translation that could not be verified because the
	// verify-stage circuit breaker was open: the loop stopped burning
	// candidates against a dead verifier and fell back to the best-scored
	// unverified candidate. Verified is always false when Degraded is set.
	Degraded bool
	// Overhead is the wall-clock cost of the feedback loop itself
	// (execution + explanation + verification), excluding model inference.
	Overhead time.Duration
}

// Pipeline wires a translation model, a feedback generator and a verifier
// into the CycleSQL loop. Build it as a literal: Model and Verifier are
// required, every other field's zero value is the paper's setting, and
// every pipeline keeps its per-database executors (and, under the default
// feedback, explainers) warm across Translate calls. Use it by pointer
// and do not copy it after first use.
type Pipeline struct {
	Model    nl2sql.Model
	Verifier nli.Verifier
	// Feedback generates each candidate's premise; nil means a
	// DataGrounded feedback owned by the pipeline.
	Feedback Feedback
	// BeamSize is the number of candidates the model proposes; 0 means
	// the paper's 8.
	BeamSize int
	// Benchmark names the benchmark the simulated models translate
	// against (it keys the model's example lookup and the translate
	// stage's breaker identity).
	Benchmark string

	// Parallelism bounds how many beam candidates are verified
	// concurrently within one Translate call. 0 or 1 is the paper's
	// sequential loop, run inline; higher values execute, explain and
	// verify candidates speculatively on a worker pool while results
	// commit in beam order, so Final, Verified, Iterations, Premises and
	// Errors are identical either way. No candidate after a validated (or
	// verify-degraded) one is started once that outcome exists, and work
	// already in flight is aborted and discarded when the loop stops. With Parallelism > 1 the Feedback and
	// Verifier must be safe for concurrent use (the implementations in
	// this repository are).
	Parallelism int

	// Resilience, when non-nil, wraps every loop stage with the policy's
	// retry/backoff and per-stage circuit breakers, and recovers stage
	// panics into StageErrors (see the package comment). Policies are
	// meant to be shared: every pipeline of a sweep holding the same
	// *Policy shares its breakers and reliability counters. A nil policy
	// means single attempts and no breakers — the pre-resilience loop.
	Resilience *resilience.Policy

	// execs keeps one executor per database alive across Translate calls
	// (per live store for snapshot views: the newest view's). Beam
	// candidates are fresh ASTs per call, but their SQL text recurs
	// across beams, and the executor's plan cache is keyed by canonical
	// SQL — so a persistent executor skips recompiling them even when the
	// caller interleaves examples from different databases.
	execs boundedCache[*sqleval.Executor]
	// feedback is the data-grounded feedback a nil Feedback resolves to.
	feedback DataGrounded
}

// Translate runs the feedback loop for one example. Cancelling ctx aborts
// the loop — including any SQL execution in flight, which the executor
// interrupts mid-query — and Translate returns the context's error; a
// Result is never returned alongside one, so callers cannot mistake a
// half-examined beam for a real outcome.
func (p *Pipeline) Translate(ctx context.Context, ex datasets.Example, db *storage.Database) (*Result, error) {
	if p.Model == nil || p.Verifier == nil {
		return nil, fmt.Errorf("core: pipeline needs a model and a verifier")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fb := p.Feedback
	if fb == nil {
		fb = &p.feedback
	}
	k := p.BeamSize
	if k <= 0 {
		k = 8
	}
	candidates, translateRetries, err := p.beam(ctx, ex, db, k)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: model %s produced no candidates", p.Model.Name())
	}
	res := &Result{Candidates: candidates, Retries: translateRetries}
	start := time.Now()
	defer func() { res.Overhead = time.Since(start) }()
	// One executor serves every candidate and persists across Translate
	// calls, so textually recurring candidates reuse compiled plans (the
	// cache is keyed by canonical SQL, not AST identity). The executor is
	// safe for concurrent Run, so speculative workers share it.
	executor := p.Executor(db)
	p.run(ctx, res, ex.Question, db, fb, executor, candidates)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !res.Verified {
		// No candidate validated — or the verify breaker forced graceful
		// degradation: the best-scored (top-1) candidate is the outcome.
		res.Final = candidates[0].Stmt
		res.FinalSQL = candidates[0].SQL
	}
	if res.Degraded {
		p.Resilience.Collect().AddDegraded()
	}
	return res, nil
}

// Executor returns the pipeline's warm executor for db, the one Translate
// runs candidates on, creating it on first use. For a snapshot view older
// than the newest one the pipeline has seen, it is a fresh executor that
// the pipeline does not keep.
func (p *Pipeline) Executor(db *storage.Database) *sqleval.Executor {
	return p.execs.get(db, sqleval.New)
}

// beam produces the candidate list, running the model's inference as the
// translate stage: under a resilience policy transient beam faults are
// retried within ctx's budget, and with or without one a panicking model
// fails the translation instead of the process. A done ctx is returned as
// itself, never wrapped.
func (p *Pipeline) beam(ctx context.Context, ex datasets.Example, db *storage.Database, k int) ([]nl2sql.Candidate, int, error) {
	var cands []nl2sql.Candidate
	se, attempts, _ := p.stage(ctx, resilience.StageTranslate, p.Benchmark, ex.ID, func(ctx context.Context) error {
		var err error
		cands, err = nl2sql.TranslateContext(ctx, p.Model, p.Benchmark, ex, db, k)
		return err
	})
	retries := max(attempts-1, 0)
	if !se.IsZero() {
		if err := ctx.Err(); err != nil {
			return nil, retries, err
		}
		return nil, retries, fmt.Errorf("core: %w", error(se))
	}
	return cands, retries, nil
}

// BaselineContext returns the model's unassisted top-1 translation, the
// "Base" rows of the paper's tables. It runs as the translate stage, so a
// chaos sweep's baseline rows heal from transient beam faults exactly as
// the loop's own beam does.
func (p *Pipeline) BaselineContext(ctx context.Context, ex datasets.Example, db *storage.Database) (*sqlast.SelectStmt, error) {
	candidates, _, err := p.beam(ctx, ex, db, 1)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: model %s produced no candidates", p.Model.Name())
	}
	return candidates[0].Stmt, nil
}

// resultSnippet renders a compact textual form of a result relation for
// the premise: row count plus up to the first two rows.
func resultSnippet(rel *sqltypes.Relation) string {
	if rel == nil {
		return "no result"
	}
	var buf [128]byte
	b := strconv.AppendInt(buf[:0], int64(rel.NumRows()), 10)
	b = append(b, " rows"...)
	for _, row := range rel.Rows[:min(rel.NumRows(), 2)] {
		b = append(b, " ;"...)
		for _, v := range row[:min(len(row), 4)] {
			b = append(b, ' ')
			b = v.AppendString(b)
		}
	}
	return string(b)
}
