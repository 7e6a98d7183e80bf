package nli

import (
	"context"
	"time"
)

// VerifyContext runs a verifier's verdict under a context: a context
// already done short-circuits before any verifier work, so verifiers with
// no waits of their own need not check it.
func VerifyContext(ctx context.Context, v Verifier, hypothesis string, premise Premise) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return v.VerifyContext(ctx, hypothesis, premise)
}

// Latency wraps a verifier with simulated per-inference latency — the
// Fig 8b substitution applied to the verifier (the paper's verifier is a
// T5-Large forward pass; this repository has no GPU). The wait is charged
// before the wrapped verdict and honors cancellation, so an aborted
// candidate abandons the simulated inference mid-wait exactly as a real
// serving stack would abandon a forward pass. Score passes through
// without the wait: scores are display/diagnostic reads, not inferences
// the loop charges.
type Latency struct {
	V Verifier
	D time.Duration
}

// Name implements Verifier.
func (l Latency) Name() string { return l.V.Name() }

// Score implements Verifier.
func (l Latency) Score(hypothesis string, premise Premise) float64 {
	return l.V.Score(hypothesis, premise)
}

// VerifyContext implements Verifier: the wait aborts — returning the
// context's error — as soon as the context is done, and the wrapped
// verdict runs under the same context, so a context-aware inner verifier
// (another Latency, a real inference client) stays cancellable too.
func (l Latency) VerifyContext(ctx context.Context, hypothesis string, premise Premise) (bool, error) {
	if l.D > 0 {
		t := time.NewTimer(l.D)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-t.C:
		}
	}
	return VerifyContext(ctx, l.V, hypothesis, premise)
}
