package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestMarkTransient(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) should stay nil")
	}
	base := errors.New("boom")
	if IsTransient(base) {
		t.Fatal("unmarked error must be permanent")
	}
	marked := MarkTransient(base)
	if !IsTransient(marked) {
		t.Fatal("marked error must be transient")
	}
	wrapped := fmt.Errorf("verify: %w", marked)
	if !IsTransient(wrapped) {
		t.Fatal("transience must survive %%w wrapping")
	}
	if !errors.Is(wrapped, base) {
		t.Fatal("mark must preserve the error chain")
	}
	if IsTransient(context.Canceled) || IsTransient(context.DeadlineExceeded) {
		t.Fatal("context errors are never transient")
	}
	if IsTransient(MarkTransient(fmt.Errorf("late: %w", context.Canceled))) {
		t.Fatal("a marked wrapper around a context error is still not retryable")
	}
	if IsTransient(nil) {
		t.Fatal("nil is not transient")
	}
}

func TestPanicError(t *testing.T) {
	pe := Recovered("kaboom")
	if got := pe.Error(); got != "panic: kaboom" {
		t.Fatalf("Error() = %q", got)
	}
	if IsTransient(pe) {
		t.Fatal("arbitrary panic values are permanent")
	}
	// A transient-marked error thrown as a panic stays retryable.
	tp := Recovered(MarkTransient(errors.New("injected")))
	if !IsTransient(tp) {
		t.Fatal("transient error panic value must stay transient through PanicError")
	}
}

func TestStageError(t *testing.T) {
	var zero StageError
	if !zero.IsZero() {
		t.Fatal("zero StageError must report IsZero")
	}
	e := StageError{Stage: StageVerify, Attempt: 1, Err: "boom"}
	if e.IsZero() {
		t.Fatal("non-zero StageError must not report IsZero")
	}
	if got := e.Error(); got != "verify: boom" {
		t.Fatalf("single-attempt Error() = %q", got)
	}
	e.Attempt = 3
	if got := e.Error(); got != "verify: boom (attempt 3)" {
		t.Fatalf("multi-attempt Error() = %q", got)
	}
	// Comparability is what the parity suites rely on.
	if e != (StageError{Stage: StageVerify, Attempt: 3, Err: "boom"}) {
		t.Fatal("StageError must be ==-comparable")
	}
}

func TestRetryTransientSucceeds(t *testing.T) {
	r := Retry{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	calls := 0
	attempts, err := r.Do(context.Background(), "k", func(ctx context.Context) error {
		calls++
		if got := Attempt(ctx); got != calls {
			t.Fatalf("attempt %d tagged as %d", calls, got)
		}
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("got attempts=%d calls=%d err=%v, want 3/3/nil", attempts, calls, err)
	}
}

func TestRetryPermanentNotRetried(t *testing.T) {
	r := Retry{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	perm := errors.New("semantic")
	attempts, err := r.Do(context.Background(), "k", func(context.Context) error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) || attempts != 1 || calls != 1 {
		t.Fatalf("permanent error retried: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	r := Retry{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 5 * time.Microsecond}
	calls := 0
	attempts, err := r.Do(context.Background(), "k", func(context.Context) error {
		calls++
		return MarkTransient(errors.New("still down"))
	})
	if !IsTransient(err) || attempts != 3 || calls != 3 {
		t.Fatalf("budget exhaustion: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetryZeroValueSingleAttempt(t *testing.T) {
	var r Retry
	calls := 0
	attempts, err := r.Do(context.Background(), "k", func(context.Context) error {
		calls++
		return MarkTransient(errors.New("flaky"))
	})
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("zero Retry must run exactly once: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

// Satellite: a pre-cancelled context returns immediately with zero
// attempts — fn never runs and no backoff timer is created.
func TestRetryPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Retry{MaxAttempts: 5, BaseDelay: time.Hour} // a real sleep would hang the test
	start := time.Now()
	attempts, err := r.Do(ctx, "k", func(context.Context) error {
		t.Fatal("fn must not run under a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) || attempts != 0 {
		t.Fatalf("pre-cancelled: attempts=%d err=%v", attempts, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled Do took %v", elapsed)
	}
}

// Satellite: cancellation mid-backoff abandons the sleep immediately
// instead of finishing the wait (mirrors verifycancel_test.go's style:
// gate the cancellation on the retry actually being inside the backoff).
func TestRetryCancelledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := Retry{MaxAttempts: 2, BaseDelay: time.Hour, MaxDelay: time.Hour}
	entered := make(chan struct{})
	start := time.Now()
	done := make(chan struct{})
	var attempts int
	var err error
	go func() {
		defer close(done)
		attempts, err = r.Do(ctx, "k", func(context.Context) error {
			close(entered)
			return MarkTransient(errors.New("flaky"))
		})
	}()
	<-entered // first attempt has failed; Do is heading into a 1h backoff
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not abandon the backoff on cancellation")
	}
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("mid-backoff cancel: attempts=%d err=%v", attempts, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff outlived cancellation: %v", elapsed)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	r := Retry{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 42}
	prevMax := time.Duration(0)
	for attempt := 1; attempt < 9; attempt++ {
		d1 := r.backoff("key", attempt)
		d2 := r.backoff("key", attempt)
		if d1 != d2 {
			t.Fatalf("backoff not deterministic at attempt %d: %v vs %v", attempt, d1, d2)
		}
		if d1 > 8*time.Millisecond {
			t.Fatalf("backoff exceeds cap at attempt %d: %v", attempt, d1)
		}
		if d1 < time.Millisecond/2 {
			t.Fatalf("backoff below half-base at attempt %d: %v", attempt, d1)
		}
		if d1 > prevMax {
			prevMax = d1
		}
	}
	if other := (Retry{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 43}); other.backoff("key", 3) == r.backoff("key", 3) {
		t.Log("seeds 42/43 collided at attempt 3 — allowed but surprising")
	}
	if r.backoff("key-a", 3) == r.backoff("key-b", 3) {
		t.Log("keys a/b collided at attempt 3 — allowed but surprising")
	}
}

func TestAttemptDefault(t *testing.T) {
	if Attempt(context.Background()) != 1 {
		t.Fatal("untagged context must default to attempt 1")
	}
	if Attempt(WithAttempt(context.Background(), 4)) != 4 {
		t.Fatal("tagged attempt not read back")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Minute, Clock: func() time.Time { return now }}

	// Closed: failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.Record(false)
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	// A success resets the consecutive count.
	b.Allow()
	b.Record(true)
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Record(false)
	}
	if b.State() != Closed {
		t.Fatal("success must reset the consecutive-failure count")
	}
	// Third consecutive failure trips it.
	b.Allow()
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Open: fail fast until the cooldown elapses.
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("breaker must admit a probe after cooldown")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after cooldown Allow = %v, want half-open", b.State())
	}
	// Half-open: only one probe in flight.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe failure reopens (and recounts as a trip).
	b.Record(false)
	if b.State() != Open || b.Trips() != 2 {
		t.Fatalf("probe failure: state=%v trips=%d, want open/2", b.State(), b.Trips())
	}
	// Probe success after another cooldown closes it.
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe denied")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must admit calls again")
	}
}

func TestBreakerNilAndDisabled(t *testing.T) {
	var nilB *Breaker
	if !nilB.Allow() || nilB.State() != Closed || nilB.Trips() != 0 {
		t.Fatal("nil breaker must admit everything")
	}
	nilB.Record(false) // must not panic

	disabled := &Breaker{Threshold: 0}
	for i := 0; i < 10; i++ {
		if !disabled.Allow() {
			t.Fatal("disabled breaker denied a call")
		}
		disabled.Record(false)
	}
	if disabled.State() != Closed {
		t.Fatal("disabled breaker must stay closed")
	}
}

func TestBreakerOnTrip(t *testing.T) {
	trips := 0
	b := &Breaker{Threshold: 1, Cooldown: time.Hour, OnTrip: func() { trips++ }}
	b.Allow()
	b.Record(false)
	if trips != 1 {
		t.Fatalf("OnTrip fired %d times, want 1", trips)
	}
}

func TestPolicyNilSafe(t *testing.T) {
	var p *Policy
	if p.BreakerFor(StageVerify) != nil {
		t.Fatal("nil policy must return nil breaker")
	}
	if got := p.RetryPolicy(); got != (Retry{}) {
		t.Fatalf("nil policy retry = %+v", got)
	}
	if p.Collect() != nil {
		t.Fatal("nil policy must return nil collector")
	}
	if p.Stats() != (Stats{}) {
		t.Fatal("nil policy stats must be zero")
	}
}

func TestPolicyBreakersPerStage(t *testing.T) {
	c := &Collector{}
	p := &Policy{Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour}, Collector: c}
	bv := p.BreakerFor(StageVerify)
	if bv == nil {
		t.Fatal("policy must build a verify breaker")
	}
	if p.BreakerFor(StageVerify) != bv {
		t.Fatal("BreakerFor must return the same breaker per stage")
	}
	if p.BreakerFor(StageExplain) == bv {
		t.Fatal("stages must not share a breaker")
	}
	if p.BreakerFor(Stage("bogus")) != nil {
		t.Fatal("unknown stage must map to a nil (admit-all) breaker")
	}
	// Tripping the verify breaker leaves explain closed and feeds the collector.
	bv.Allow()
	bv.Record(false)
	if bv.State() != Open || p.BreakerFor(StageExplain).State() != Closed {
		t.Fatal("trip must be stage-local")
	}
	if got := p.Stats().BreakerTrips; got != 1 {
		t.Fatalf("collector trips = %d, want 1", got)
	}
}

func TestCollectorNilSafeAndCounts(t *testing.T) {
	var nilC *Collector
	nilC.AddAttempts(3)
	nilC.AddRetries(2)
	nilC.AddDegraded()
	nilC.AddPanicRecovered()
	if nilC.Stats() != (Stats{}) {
		t.Fatal("nil collector stats must be zero")
	}

	c := &Collector{}
	c.AddAttempts(3)
	c.AddAttempts(0) // no-op
	c.AddRetries(2)
	c.AddDegraded()
	c.AddPanicRecovered()
	got := c.Stats()
	want := Stats{Attempts: 3, Retries: 2, Degraded: 1, PanicsRecovered: 1}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	const wantStr = "attempts=3 retries=2 breaker-trips=0 degraded=1 panics-recovered=1"
	if got.String() != wantStr {
		t.Fatalf("String() = %q, want %q", got.String(), wantStr)
	}
}

// The fault-free fast path must not allocate: a successful single-attempt
// Do, a closed-breaker Allow/Record pair, and collector adds.
func TestFastPathZeroAlloc(t *testing.T) {
	r := Retry{MaxAttempts: 8}
	ctx := context.Background()
	fn := func(context.Context) error { return nil }
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Do(ctx, "k", fn); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Retry.Do success path allocates %.1f/op, want 0", n)
	}
	b := &Breaker{Threshold: 5}
	if n := testing.AllocsPerRun(200, func() {
		if !b.Allow() {
			t.Fatal("closed breaker denied")
		}
		b.Record(true)
	}); n != 0 {
		t.Fatalf("breaker Allow/Record allocates %.1f/op, want 0", n)
	}
	c := &Collector{}
	if n := testing.AllocsPerRun(200, func() {
		c.AddAttempts(1)
	}); n != 0 {
		t.Fatalf("collector add allocates %.1f/op, want 0", n)
	}
}
