// Package resilience is the fault-handling layer the CycleSQL loop wraps
// around its model calls (translator beam, explainer, NLI verifier). In a
// serving deployment those calls are remote inferences that time out,
// error, hang and crash; the loop must retry what is transient, stop
// hammering what is down, and degrade gracefully instead of failing whole
// translations on infrastructure weather.
//
// The package provides three pieces, all deterministic and safe for
// concurrent use:
//
//   - Retry: capped exponential backoff with deterministic per-call
//     jitter. Sleeps honor the caller's context, so a candidate cancelled
//     mid-backoff (the parallel loop aborting stragglers, a per-example
//     deadline) returns immediately instead of finishing the wait.
//   - Breaker: a consecutive-failure circuit breaker, keyed per pipeline
//     stage by Policy. It only counts infrastructure outcomes — transient
//     failures that survived the retry budget — never semantic errors
//     (an invalid candidate SQL is a normal loop event, not an outage).
//   - StageError: the typed per-candidate error record that replaces the
//     stringly "execute:"/"explain:"/"verify:" prefixes core.Result used
//     to carry. It keeps exactly the final attempt's message plus the
//     attempt count, so a high-fault chaos sweep cannot grow results
//     without bound.
//
// Transience is an explicit mark (MarkTransient / the TransientError
// interface), applied by fault sources such as internal/faultinject;
// unmarked errors — semantic SQL failures, panics from real bugs — are
// permanent and never retried. Context errors are never transient.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Stage names one step of the CycleSQL loop, tagging StageErrors and
// keying the per-stage circuit breakers.
type Stage string

// The loop's stages, in the order one candidate flows through them (the
// translate stage runs once per Translate call, before the candidates).
const (
	StageTranslate Stage = "translate"
	StageExecute   Stage = "execute"
	StageExplain   Stage = "explain"
	StageVerify    Stage = "verify"
)

// Stages lists every stage in loop order; Policy builds one breaker per
// entry.
var Stages = []Stage{StageTranslate, StageExecute, StageExplain, StageVerify}

// StageError records why one pipeline stage failed for one candidate:
// the stage, how many attempts the retry policy consumed, the final
// attempt's error text, and whether that error was classified transient.
// It is a plain comparable value — the zero StageError means "no error" —
// so parity suites can compare Results across worker counts with ==.
//
// Only the final attempt is kept: retried-away transient faults surface
// solely through the Attempt counter (and Result.Retries), which is what
// bounds a chaos sweep's result size regardless of fault rate.
type StageError struct {
	Stage     Stage
	Attempt   int    // attempts consumed producing Err; 1 = no retries, 0 = never ran (pre-cancelled or circuit open)
	Err       string // the final attempt's error text
	Transient bool   // whether the final error was classified retryable
}

// Error implements error, rendering the stage-prefixed form drivers log.
func (e StageError) Error() string {
	if e.Attempt > 1 {
		return fmt.Sprintf("%s: %s (attempt %d)", e.Stage, e.Err, e.Attempt)
	}
	return string(e.Stage) + ": " + e.Err
}

// IsZero reports whether the stage completed without error.
func (e StageError) IsZero() bool { return e == StageError{} }

// TransientError marks an error as a retryable infrastructure fault.
// Fault sources implement it (or wrap with MarkTransient); the retry
// policy and breakers consult it through IsTransient.
type TransientError interface {
	error
	Transient() bool
}

type transientErr struct{ err error }

func (t transientErr) Error() string   { return t.err.Error() }
func (t transientErr) Unwrap() error   { return t.err }
func (t transientErr) Transient() bool { return true }

// MarkTransient wraps err as a retryable infrastructure fault. A nil err
// stays nil. The mark survives fmt.Errorf("...: %w", err) wrapping.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return transientErr{err: err}
}

// IsContextError reports whether err is context cancellation or a
// deadline — the outcomes that carry no infrastructure signal: the stage
// didn't fail, its budget did. Breakers record nothing for them.
func IsContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsTransient reports whether err is marked retryable. Context
// cancellation and deadlines are never transient — retrying inside a dead
// budget is wasted work — and unmarked errors (semantic SQL failures,
// real bugs) are permanent.
func IsTransient(err error) bool {
	if err == nil || IsContextError(err) {
		return false
	}
	var te TransientError
	return errors.As(err, &te) && te.Transient()
}

// PanicError is a panic recovered into an error by the loop's stage
// runner. Unwrap exposes the panic value when it was itself an error, so
// a transient-marked injected panic stays retryable while an arbitrary
// panic (a real bug) is permanent.
type PanicError struct{ Value any }

// Recovered wraps a recover() value.
func Recovered(v any) *PanicError { return &PanicError{Value: v} }

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes an error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Retry is a capped exponential backoff policy with deterministic jitter.
// The zero value performs exactly one attempt (no retries), which is the
// pre-resilience pipeline behavior.
type Retry struct {
	// MaxAttempts bounds total attempts including the first; values
	// below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before attempt 2 (default 1ms); each
	// further attempt doubles it up to MaxDelay (default 100ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed keys the deterministic jitter stream: the delay before a given
	// (key, attempt) is a pure function of (Seed, key, attempt), so
	// chaos runs are reproducible and concurrent retries of different
	// calls do not thunder in lockstep.
	Seed int64
}

// Do runs fn until it succeeds, fails permanently, exhausts the attempt
// budget, or ctx is cancelled. It returns the number of fn invocations
// and the final error (nil on success).
//
// Cancellation is honored everywhere a wait can happen: a pre-cancelled
// ctx returns its error with zero attempts before fn ever runs, and a
// cancellation mid-backoff abandons the sleep immediately — the backoff
// never outlives the candidate's context budget.
//
// Re-attempts run under a context tagged with the 1-based attempt number
// (see WithAttempt), which deterministic fault injectors hash into their
// draws so each retry rerolls its faults. The first attempt runs under
// ctx unmodified, keeping the fault-free fast path allocation-free.
func (r Retry) Do(ctx context.Context, key string, fn func(ctx context.Context) error) (attempts int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	max := r.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; ; attempt++ {
		actx := ctx
		if attempt > 1 {
			actx = WithAttempt(ctx, attempt)
		}
		err = fn(actx)
		if err == nil || attempt >= max || !IsTransient(err) {
			return attempt, err
		}
		if serr := sleepCtx(ctx, r.backoff(key, attempt)); serr != nil {
			return attempt, serr
		}
	}
}

// backoff computes the deterministic-jittered delay after a failed
// attempt: capped exponential growth, scaled into [50%, 100%) by a hash
// of (Seed, key, attempt).
func (r Retry) backoff(key string, attempt int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	maxD := r.MaxDelay
	if maxD <= 0 {
		maxD = 100 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxD || d <= 0 { // <= 0 guards shift overflow on huge budgets
			d = maxD
			break
		}
	}
	if d > maxD {
		d = maxD
	}
	return d/2 + time.Duration(hash01(r.Seed, key, attempt)*float64(d/2))
}

// sleepCtx waits d or until ctx is done, returning the context's error in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hash01 maps (seed, key, n) onto [0, 1) deterministically.
func hash01(seed int64, key string, n int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

type attemptKey struct{}

// WithAttempt tags ctx with a 1-based retry attempt number. Deterministic
// fault injectors read it back (Attempt) and hash it into their fault
// draws, so a retried call rerolls instead of hitting the same injected
// fault forever.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// Attempt returns the attempt number tagged on ctx, defaulting to 1 for
// an untagged context (the first attempt is never tagged — see Retry.Do).
func Attempt(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 1
}
