// Package faultinject is the chaos half of the resilience layer: a
// deterministic, seedable fault injector that wraps the CycleSQL loop's
// three model-call surfaces — the translator beam (nl2sql.Model), the NLI
// verifier (nli.Verifier) and the feedback generator (core.Feedback) —
// and makes them fail the way remote inference fails: errors, hangs,
// crashes, and added latency, each with an independent rate.
//
// Every fault decision is a pure function of (Seed, fault kind, call
// identity, retry attempt) — there is no shared RNG stream — so a chaos
// run injects the same faults into the same calls regardless of worker
// count, goroutine schedule, or parallelism level. That is what makes
// the chaos-parity suite possible: with retries on, a faulted sweep must
// reproduce the fault-free sweep's Results bit for bit, at any
// parallelism. The retry attempt number (resilience.Attempt, threaded
// through the context by resilience.Retry.Do) is hashed into each draw,
// so a retried call rerolls its faults instead of hitting the same one
// forever.
//
// Injected errors and panics are marked transient (resilience.
// MarkTransient), so the retry policy recognizes them as retryable
// infrastructure weather; a hang resolves into a transient timeout error
// after HangTimeout — modeling a client-side inference timeout — so
// chaos runs without per-call deadlines cannot deadlock.
//
// The wrappers inject on the context-aware call paths the loop actually
// uses (TranslateContext, VerifyContext, Premise); the plain synchronous
// Translate, Score and Name delegate untouched, so diagnostic reads such
// as score displays stay fault-free.
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Config sets the independent per-call fault rates, all in [0, 1].
type Config struct {
	// Seed keys every fault draw; two runs with the same Seed inject
	// identical faults into identical calls.
	Seed int64
	// ErrorRate is P(the call returns a transient error).
	ErrorRate float64
	// HangRate is P(the call hangs); the hang ends at the caller's context
	// cancellation or after HangTimeout, whichever comes first, resolving
	// into a transient timeout error.
	HangRate float64
	// HangTimeout is the simulated client-side inference timeout bounding
	// a hang (default 100ms).
	HangTimeout time.Duration
	// PanicRate is P(the call panics); the panic value is a
	// transient-marked error, so the loop's recovery keeps it retryable.
	PanicRate float64
	// LatencyRate is P(the call is slowed by Latency) — slowdowns alone
	// never fail a call, they just cost wall-clock.
	LatencyRate float64
	Latency     time.Duration
}

// Enabled reports whether any fault kind can fire.
func (c Config) Enabled() bool {
	return c.ErrorRate > 0 || c.HangRate > 0 || c.PanicRate > 0 ||
		(c.LatencyRate > 0 && c.Latency > 0)
}

func (c Config) hangTimeout() time.Duration {
	if c.HangTimeout > 0 {
		return c.HangTimeout
	}
	return 100 * time.Millisecond
}

// Stats counts the faults an Injector has fired, by kind.
type Stats struct {
	Errors    int64
	Hangs     int64
	Panics    int64
	Latencies int64
}

// Total is the number of faults fired across all kinds.
func (s Stats) Total() int64 { return s.Errors + s.Hangs + s.Panics + s.Latencies }

// Injector draws faults deterministically from a Config and counts what
// it fires. One injector is shared by all the wrappers it hands out; it
// is safe for concurrent use.
type Injector struct {
	cfg Config

	errors    atomic.Int64
	hangs     atomic.Int64
	panics    atomic.Int64
	latencies atomic.Int64
}

// New returns an injector for the config.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats snapshots the fired-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Errors:    in.errors.Load(),
		Hangs:     in.hangs.Load(),
		Panics:    in.panics.Load(),
		Latencies: in.latencies.Load(),
	}
}

// draw decides one fault kind for one call attempt: a pure function of
// (seed, kind, op, key, attempt) — schedule-independent by construction.
func (in *Injector) draw(kind, op, key string, attempt int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(in.cfg.Seed >> (8 * i))
		buf[8+i] = byte(attempt >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return float64(h.Sum64()>>11)/float64(1<<53) < rate
}

// inject fires this attempt's faults for one call, identified by (op,
// key). Latency is charged first (a slow call can still fail), then the
// failure kinds in fixed order: panic, hang, error. It returns nil when
// the call should proceed to the real implementation.
func (in *Injector) inject(ctx context.Context, op, key string) error {
	attempt := resilience.Attempt(ctx)
	if in.draw("latency", op, key, attempt, in.cfg.LatencyRate) && in.cfg.Latency > 0 {
		in.latencies.Add(1)
		t := time.NewTimer(in.cfg.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if in.draw("panic", op, key, attempt, in.cfg.PanicRate) {
		in.panics.Add(1)
		panic(resilience.MarkTransient(fmt.Errorf("faultinject: injected panic in %s", op)))
	}
	if in.draw("hang", op, key, attempt, in.cfg.HangRate) {
		in.hangs.Add(1)
		t := time.NewTimer(in.cfg.hangTimeout())
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return resilience.MarkTransient(fmt.Errorf("faultinject: injected hang in %s timed out", op))
		}
	}
	if in.draw("error", op, key, attempt, in.cfg.ErrorRate) {
		in.errors.Add(1)
		return resilience.MarkTransient(fmt.Errorf("faultinject: injected error in %s", op))
	}
	return nil
}

// WrapModel wraps a translation model; the returned model implements
// nl2sql.ContextModel and injects faults on TranslateContext. An
// injector with no enabled faults returns m unwrapped.
func (in *Injector) WrapModel(m nl2sql.Model) nl2sql.Model {
	if !in.cfg.Enabled() {
		return m
	}
	return &model{in: in, m: m}
}

type model struct {
	in *Injector
	m  nl2sql.Model
}

func (w *model) Name() string               { return w.m.Name() }
func (w *model) BaseLatency() time.Duration { return w.m.BaseLatency() }

// Translate implements nl2sql.Model, delegating untouched: the loop's
// call path is TranslateContext, which carries the budget faults honor.
func (w *model) Translate(benchmark string, ex datasets.Example, db *storage.Database, k int) []nl2sql.Candidate {
	return w.m.Translate(benchmark, ex, db, k)
}

// TranslateContext implements nl2sql.ContextModel with fault injection.
func (w *model) TranslateContext(ctx context.Context, benchmark string, ex datasets.Example, db *storage.Database, k int) ([]nl2sql.Candidate, error) {
	if err := w.in.inject(ctx, "translate", benchmark+"\x00"+ex.ID); err != nil {
		return nil, err
	}
	return nl2sql.TranslateContext(ctx, w.m, benchmark, ex, db, k)
}

// WrapVerifier wraps an NLI verifier, injecting faults on VerifyContext —
// composing with nli.Latency and any other verifier with real waits,
// which keep honoring the same context underneath. Score delegates
// untouched (scores are diagnostic reads). An injector with no enabled
// faults returns v unwrapped.
func (in *Injector) WrapVerifier(v nli.Verifier) nli.Verifier {
	if !in.cfg.Enabled() {
		return v
	}
	return &verifier{in: in, v: v}
}

type verifier struct {
	in *Injector
	v  nli.Verifier
}

func (w *verifier) Name() string { return w.v.Name() }

func (w *verifier) Score(hypothesis string, premise nli.Premise) float64 {
	return w.v.Score(hypothesis, premise)
}

// VerifyContext implements nli.Verifier with fault injection.
func (w *verifier) VerifyContext(ctx context.Context, hypothesis string, premise nli.Premise) (bool, error) {
	if err := w.in.inject(ctx, "verify", hypothesis+"\x00"+premise.SQL); err != nil {
		return false, err
	}
	return nli.VerifyContext(ctx, w.v, hypothesis, premise)
}

// WrapFeedback wraps a feedback generator, injecting faults on Premise.
// An injector with no enabled faults returns f unwrapped.
func (in *Injector) WrapFeedback(f core.Feedback) core.Feedback {
	if !in.cfg.Enabled() {
		return f
	}
	return &feedback{in: in, f: f}
}

type feedback struct {
	in *Injector
	f  core.Feedback
}

func (w *feedback) Name() string { return w.f.Name() }

// Premise implements core.Feedback with fault injection; the call key is
// the candidate's canonical SQL, so every beam candidate draws its own
// faults.
func (w *feedback) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	if err := w.in.inject(ctx, "explain", stmt.SQL()); err != nil {
		return nli.Premise{}, err
	}
	return w.f.Premise(ctx, db, stmt, result)
}
