package core

// Resilience-layer behavior inside the loop, exercised WITHOUT the
// faultinject package (which imports core for the Feedback interface —
// importing it back here would be a cycle): hand-rolled flaky/panicking
// stubs stand in for injected chaos.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// flakyVerifier fails every candidate's first verify attempt with a
// transient error and delegates from the second attempt on — a remote
// verifier whose every call needs one retry. Deterministic by
// construction: the failure depends only on the attempt number the retry
// policy tags on the context, never on goroutine schedule.
type flakyVerifier struct {
	inner nli.Verifier
}

func (f flakyVerifier) Name() string                          { return f.inner.Name() }
func (f flakyVerifier) Score(h string, p nli.Premise) float64 { return f.inner.Score(h, p) }

func (f flakyVerifier) VerifyContext(ctx context.Context, h string, p nli.Premise) (bool, error) {
	if resilience.Attempt(ctx) < 2 {
		return false, resilience.MarkTransient(errors.New("flaky verifier"))
	}
	return nli.VerifyContext(ctx, f.inner, h, p)
}

func retryPolicy() *resilience.Policy {
	return &resilience.Policy{
		Retry:     resilience.Retry{MaxAttempts: 4, BaseDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond, Seed: 7},
		Collector: &resilience.Collector{},
	}
}

// TestRetryHealsFlakyVerifierParity is the in-core retry contract: with
// retries on, a pipeline whose every verify call fails once transiently
// must produce Results identical to the fault-free pipeline — same
// Final, Verified, Iterations, Premises and (zero) Errors — at
// parallelism 1 and 4, with Retries surfacing the healed faults.
func TestRetryHealsFlakyVerifierParity(t *testing.T) {
	v := sharedVerifier(t)
	bench := datasets.Spider()
	dev := bench.Dev
	if len(dev) > 60 {
		dev = dev[:60]
	}
	model := nl2sql.MustByName("resdsql-3b")
	clean := New(model, WithVerifier(v), WithBenchmark(bench.Name))
	for _, workers := range []int{1, 4} {
		flaky := New(model, WithVerifier(flakyVerifier{inner: v}), WithBenchmark(bench.Name))
		flaky.Parallelism = workers
		flaky.Resilience = retryPolicy()
		for _, ex := range dev {
			db := bench.DB(ex.DBName)
			want, err := clean.Translate(context.Background(), ex, db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := flaky.Translate(context.Background(), ex, db)
			if err != nil {
				t.Fatal(err)
			}
			if got.FinalSQL != want.FinalSQL || got.Verified != want.Verified || got.Iterations != want.Iterations {
				t.Fatalf("parallelism=%d diverges on %q:\nclean: final=%q verified=%v iter=%d\nflaky: final=%q verified=%v iter=%d",
					workers, ex.Question, want.FinalSQL, want.Verified, want.Iterations, got.FinalSQL, got.Verified, got.Iterations)
			}
			if len(got.Premises) != len(want.Premises) {
				t.Fatalf("parallelism=%d premise counts diverge on %q", workers, ex.Question)
			}
			for i := range want.Premises {
				if got.Premises[i] != want.Premises[i] {
					t.Fatalf("parallelism=%d premise %d diverges on %q", workers, i, ex.Question)
				}
				if !got.Errors[i].IsZero() {
					t.Fatalf("parallelism=%d retried-away fault leaked into Errors[%d]: %+v", workers, i, got.Errors[i])
				}
			}
			// Every examined candidate's verify needed exactly one retry.
			if got.Retries != got.Iterations {
				t.Fatalf("parallelism=%d Retries=%d, want %d (one per examined candidate) on %q",
					workers, got.Retries, got.Iterations, ex.Question)
			}
			if got.Degraded {
				t.Fatalf("no breaker configured, nothing can degrade: %q", ex.Question)
			}
		}
		if s := flaky.Resilience.Stats(); s.Retries == 0 || s.Attempts <= s.Retries {
			t.Fatalf("collector missed the healed faults: %+v", s)
		}
	}
}

// panickyFeedback panics on one candidate's premise generation — a buggy
// explainer path — and delegates for every other candidate.
type panickyFeedback struct {
	inner  Feedback
	poison string // SQL of the candidate whose Premise panics
}

func (p panickyFeedback) Name() string { return p.inner.Name() }

func (p panickyFeedback) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	if stmt.SQL() == p.poison {
		panic("explainer bug")
	}
	return p.inner.Premise(ctx, db, stmt, result)
}

// TestExaminePanicRecovery closes PR 3's crash-the-process hole on BOTH
// loop paths, policy or no policy: a panic inside one candidate's chain
// becomes that candidate's StageError — tagged with the stage that blew
// up and permanent (a real bug must not be retried) — while the rest of
// the beam proceeds to the normal verdict.
func TestExaminePanicRecovery(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	poison := ex.Gold.Clone()
	lim := int64(1)
	poison.Cores[len(poison.Cores)-1].Limit = &lim
	if poison.SQL() == ex.Gold.SQL() {
		t.Fatal("candidates must render distinct SQL")
	}
	model := stubModel{cands: []nl2sql.Candidate{candidateOf(poison), candidateOf(ex.Gold)}}
	accept := nli.Func{Label: "accept-all", Fn: func(string, nli.Premise) bool { return true }}
	for _, workers := range []int{1, 4} {
		for _, policy := range []*resilience.Policy{nil, retryPolicy()} {
			p := New(model, WithVerifier(accept), WithBenchmark(bench.Name))
			p.Feedback = panickyFeedback{inner: NewDataGrounded(), poison: poison.SQL()}
			p.Parallelism = workers
			p.Resilience = policy
			res, err := p.Translate(context.Background(), ex, db)
			if err != nil {
				t.Fatalf("workers=%d policy=%v: %v", workers, policy != nil, err)
			}
			if !res.Verified || res.Iterations != 2 {
				t.Fatalf("workers=%d policy=%v: beam must survive the panic and validate candidate 2: %+v",
					workers, policy != nil, res)
			}
			se := res.Errors[0]
			if se.Stage != resilience.StageExplain || !strings.Contains(se.Err, "panic: explainer bug") {
				t.Fatalf("workers=%d policy=%v: panic must surface as the explain stage's error, got %+v",
					workers, policy != nil, se)
			}
			if se.Transient {
				t.Fatalf("a real bug's panic must be permanent, got %+v", se)
			}
			if se.Attempt != 1 {
				t.Fatalf("a permanent panic must not be retried, got attempt %d", se.Attempt)
			}
			if policy != nil && policy.Stats().PanicsRecovered == 0 {
				t.Fatal("collector must count the recovered panic")
			}
		}
	}
}

// transientPanicVerifier panics with a transient-marked error on the
// first attempt — injected chaos, not a bug — and accepts afterwards.
type transientPanicVerifier struct{}

func (transientPanicVerifier) Name() string                      { return "transient-panic" }
func (transientPanicVerifier) Score(string, nli.Premise) float64 { return 0 }

func (transientPanicVerifier) VerifyContext(ctx context.Context, _ string, _ nli.Premise) (bool, error) {
	if resilience.Attempt(ctx) < 2 {
		panic(resilience.MarkTransient(errors.New("injected panic")))
	}
	return true, nil
}

// TestTransientPanicRetried: a panic whose value is a transient-marked
// error is chaos, not a bug — the retry policy rerolls it and the
// candidate still validates.
func TestTransientPanicRetried(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	p := New(stubModel{cands: []nl2sql.Candidate{candidateOf(ex.Gold)}}, WithVerifier(transientPanicVerifier{}), WithBenchmark(bench.Name))
	p.Resilience = retryPolicy()
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Retries != 1 || !res.Errors[0].IsZero() {
		t.Fatalf("transient panic must be retried away: %+v", res)
	}
	if p.Resilience.Stats().PanicsRecovered != 1 {
		t.Fatalf("stats = %+v, want 1 panic recovered", p.Resilience.Stats())
	}
}

// downVerifier always fails transiently: a verifier service that is down.
type downVerifier struct{}

func (downVerifier) Name() string                      { return "down" }
func (downVerifier) Score(string, nli.Premise) float64 { return 0 }

func (downVerifier) VerifyContext(context.Context, string, nli.Premise) (bool, error) {
	return false, resilience.MarkTransient(errors.New("verifier down"))
}

// TestVerifierBreakerDegradesGracefully: a dead verifier trips the
// verify-stage breaker after the configured consecutive exhaustions, and
// the loop then degrades — it stops burning candidates, returns the
// best-scored (top-1) candidate unverified, and flags the Result — rather
// than erroring the translation.
func TestVerifierBreakerDegradesGracefully(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	second := ex.Gold.Clone()
	lim := int64(1)
	second.Cores[len(second.Cores)-1].Limit = &lim
	model := stubModel{cands: []nl2sql.Candidate{candidateOf(ex.Gold), candidateOf(second)}}
	policy := &resilience.Policy{
		Retry:     resilience.Retry{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond},
		Breaker:   resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Collector: &resilience.Collector{},
	}
	p := New(model, WithVerifier(downVerifier{}), WithBenchmark(bench.Name))
	p.Resilience = policy
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 1 exhausts its retry budget and trips the breaker;
	// candidate 2 finds the circuit open and the loop degrades on the spot.
	if !res.Degraded || res.Verified {
		t.Fatalf("want degraded unverified result, got %+v", res)
	}
	if res.FinalSQL != ex.Gold.SQL() {
		t.Fatalf("degraded translation must fall back to the best-scored candidate, got %q", res.FinalSQL)
	}
	if res.Iterations != 2 {
		t.Fatalf("loop must stop at the open circuit, got %d iterations", res.Iterations)
	}
	if se := res.Errors[0]; se.Stage != resilience.StageVerify || se.Attempt != 2 || !se.Transient {
		t.Fatalf("candidate 1 must record the exhausted verify attempts, got %+v", se)
	}
	if se := res.Errors[1]; se.Stage != resilience.StageVerify || se.Err != "circuit open" || se.Attempt != 0 {
		t.Fatalf("candidate 2 must record the open circuit without running, got %+v", se)
	}
	s := policy.Stats()
	if s.BreakerTrips < 1 || s.Degraded != 1 {
		t.Fatalf("stats = %+v, want >=1 trip and 1 degraded", s)
	}
}

// TestDegradationParityWithPreTrippedBreaker pins that the parallel
// committer handles degradation exactly like the sequential loop when the
// breaker state is deterministic: with the verify circuit already open,
// both paths degrade at candidate 1 with the top-1 fallback.
func TestDegradationParityWithPreTrippedBreaker(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	second := ex.Gold.Clone()
	lim := int64(1)
	second.Cores[len(second.Cores)-1].Limit = &lim
	model := stubModel{cands: []nl2sql.Candidate{candidateOf(ex.Gold), candidateOf(second)}}
	accept := nli.Func{Label: "accept-all", Fn: func(string, nli.Premise) bool { return true }}
	for _, workers := range []int{1, 2} {
		policy := &resilience.Policy{
			Breaker:   resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
			Collector: &resilience.Collector{},
		}
		// Trip the verify circuit before the loop ever runs.
		br := policy.BreakerFor(resilience.StageVerify)
		if !br.Allow() {
			t.Fatal("fresh breaker must admit")
		}
		br.Record(false)
		p := New(model, WithVerifier(accept), WithBenchmark(bench.Name))
		p.Parallelism = workers
		p.Resilience = policy
		res, err := p.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || res.Verified || res.Iterations != 1 || res.FinalSQL != ex.Gold.SQL() {
			t.Fatalf("parallelism=%d: want degradation at candidate 1 with top-1 fallback, got %+v", workers, res)
		}
		if se := res.Errors[0]; se.Stage != resilience.StageVerify || se.Err != "circuit open" {
			t.Fatalf("parallelism=%d: candidate 1 must record the open circuit, got %+v", workers, se)
		}
	}
}

// TestRetryBackoffHonorsCancellationInLoop mirrors verifycancel_test.go
// at the loop level: a Translate cancelled while a candidate's retry is
// inside its backoff returns the context error promptly instead of
// finishing the wait.
func TestRetryBackoffHonorsCancellationInLoop(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	entered := make(chan struct{})
	var once sync.Once
	v := funcContextVerifier{fn: func(ctx context.Context) (bool, error) {
		once.Do(func() { close(entered) })
		return false, resilience.MarkTransient(errors.New("always failing"))
	}}
	p := New(stubModel{cands: []nl2sql.Candidate{candidateOf(ex.Gold)}}, WithVerifier(v), WithBenchmark(bench.Name))
	p.Resilience = &resilience.Policy{
		// An hour of backoff: returning promptly proves the sleep aborted.
		Retry: resilience.Retry{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Translate(ctx, ex, db)
		done <- err
	}()
	<-entered // the first verify attempt failed; the retry is heading into backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Translate did not abandon the retry backoff on cancellation")
	}
}

// funcContextVerifier adapts a context-aware closure into an nli.Verifier.
type funcContextVerifier struct {
	fn func(ctx context.Context) (bool, error)
}

func (funcContextVerifier) Name() string                      { return "func-ctx" }
func (funcContextVerifier) Score(string, nli.Premise) float64 { return 0 }
func (v funcContextVerifier) VerifyContext(ctx context.Context, _ string, _ nli.Premise) (bool, error) {
	return v.fn(ctx)
}
