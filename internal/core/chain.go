package core

import (
	"context"

	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/storage"
)

// stage runs one link of the loop — the translate beam, or a candidate's
// execute, explain or verify — and is the single place every link passes
// through. A panicking attempt is recovered into an error (retryable when
// the panic value was a transient-marked error — injected chaos —
// permanent otherwise), so a crashing model call fails its stage instead
// of the process. It returns the stage's outcome as a StageError (zero on
// success), the number of attempts consumed, and whether an open breaker
// denied the call outright.
//
// A nil policy makes the link a single attempt: no breaker, no retry, no
// collector, and no allocation on success. Under a policy the stage's
// breaker gates admission and transient faults are retried with the
// policy's backoff inside ctx's budget. Breaker accounting records
// infrastructure signal only: success for any completed answer —
// including a permanent semantic error, which proves the stage is up —
// failure for a transient fault that survived the whole retry budget, and
// nothing for context cancellation (the budget died, not the stage).
//
// key and sub identify the call to the backoff jitter ("\x00"-joined when
// sub is set); the join happens only under a policy, so the policy-free
// loop never builds a key. Each attempt is identified to deterministic
// fault sources by the attempt number threaded through its context
// (resilience.WithAttempt), so retries reroll their faults
// schedule-independently.
func (p *Pipeline) stage(ctx context.Context, st resilience.Stage, key, sub string, fn func(context.Context) error) (se resilience.StageError, attempts int, open bool) {
	pol := p.Resilience
	if pol == nil {
		if err := attempt(ctx, nil, fn); err != nil {
			return resilience.StageError{Stage: st, Attempt: 1, Err: err.Error(), Transient: resilience.IsTransient(err)}, 1, false
		}
		return resilience.StageError{}, 1, false
	}
	col := pol.Collect()
	br := pol.BreakerFor(st)
	if !br.Allow() {
		return resilience.StageError{Stage: st, Err: "circuit open", Transient: true}, 0, true
	}
	if sub != "" {
		key = key + "\x00" + sub
	}
	attempts, err := pol.RetryPolicy().Do(ctx, key, func(actx context.Context) error {
		return attempt(actx, col, fn)
	})
	col.AddAttempts(attempts)
	if attempts > 1 {
		col.AddRetries(attempts - 1)
	}
	switch {
	case err == nil:
		br.Record(true)
		return resilience.StageError{}, attempts, false
	case resilience.IsContextError(err):
		// No signal about the stage itself; free a half-open probe slot.
		br.Release()
	default:
		// Transient exhausted = infrastructure failure; a permanent
		// (semantic) error means the stage answered and is healthy.
		br.Record(!resilience.IsTransient(err))
	}
	return resilience.StageError{Stage: st, Attempt: attempts, Err: err.Error(), Transient: resilience.IsTransient(err)}, attempts, false
}

// attempt runs fn once, recovering a panic into a resilience.PanicError
// (counted on col when there is one).
func attempt(ctx context.Context, col *resilience.Collector, fn func(context.Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = resilience.Recovered(v)
			if col != nil {
				col.AddPanicRecovered()
			}
		}
	}()
	return fn(ctx)
}

// candOutcome is the result of examining one candidate: its feedback
// premise (or the stage error that prevented one), the verifier's
// verdict, the transient re-attempts consumed along the way, and whether
// an open verify breaker forced degradation.
type candOutcome struct {
	premise  nli.Premise
	err      resilience.StageError
	verified bool
	retries  int
	degraded bool
}

// examine runs the execute → explain → verify chain for one candidate,
// each link through stage. Every loop driver goes through it, so all
// parallelism levels produce identical premises, errors and verdicts by
// construction. A cancelled ctx surfaces as an error outcome tagged with
// the stage that observed it; callers that care (the committer discarding
// in-flight losers, Translate's error return) check the context itself.
// An open breaker on execute or explain just fails the candidate (the
// loop moves on); an open breaker on verify degrades the whole
// translation — the candidate executed and explained fine, the verdict is
// what's unavailable — which the loop surfaces as Result.Degraded with the
// top-1 fallback.
func (p *Pipeline) examine(ctx context.Context, question string, db *storage.Database, fb Feedback, executor *sqleval.Executor, cand nl2sql.Candidate) (out candOutcome) {
	out.premise = nli.Premise{SQL: cand.SQL}

	var res sqleval.Result
	se, attempts, _ := p.stage(ctx, resilience.StageExecute, cand.SQL, "", func(actx context.Context) error {
		var err error
		res, err = executor.Run(actx, cand.Stmt)
		return err
	})
	out.retries += max(attempts-1, 0)
	if !se.IsZero() {
		// Invalid SQL can never validate; record the failure and move on.
		out.err = se
		return out
	}

	// The premise is all the loop keeps of the result, so its storage goes
	// back to the executor as soon as the premise exists.
	var premise nli.Premise
	se, attempts, _ = p.stage(ctx, resilience.StageExplain, cand.SQL, "", func(actx context.Context) error {
		var err error
		premise, err = fb.Premise(actx, db, cand.Stmt, res.Rel)
		return err
	})
	res.Release()
	out.retries += max(attempts-1, 0)
	if !se.IsZero() {
		out.err = se
		return out
	}
	out.premise = premise

	var verified bool
	se, attempts, open := p.stage(ctx, resilience.StageVerify, question, cand.SQL, func(actx context.Context) error {
		var err error
		verified, err = nli.VerifyContext(actx, p.Verifier, question, premise)
		return err
	})
	out.retries += max(attempts-1, 0)
	out.err = se
	out.degraded = open
	out.verified = se.IsZero() && verified
	return out
}
