package core

import (
	"context"
	"sync"
	"sync/atomic"

	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/storage"
)

// run is the loop's one driver: it commits candidate outcomes strictly in
// beam order, stopping at the first validated candidate, at verify-breaker
// degradation (every later candidate would hit the same open circuit), or
// at cancellation, which Translate converts into an error return.
//
// With Parallelism <= 1 each outcome is examined inline when the
// committer asks for it — the paper's sequential loop, with no goroutines.
// Above that, a bounded worker pool examines candidates speculatively and
// the committer consumes their outcomes in beam order regardless of
// completion order, so Final, Verified, Iterations, Premises and Errors
// are identical at every parallelism level. Workers stop claiming past
// the lowest index whose outcome ends the loop as soon as that outcome
// exists (see speculate), before the committer has read it. When the loop
// stops, the speculative context is cancelled: candidates not yet claimed
// are never started, and work already in flight is aborted mid-query (the
// executor polls the context inside its scan/join loops). Aborted outcomes
// belong to candidates after the stopping one, so they are discarded
// unread — every examine call is a pure read of the database, so abandoned
// work has no side effects beyond warmed caches.
func (p *Pipeline) run(ctx context.Context, res *Result, question string, db *storage.Database, fb Feedback, executor *sqleval.Executor, candidates []nl2sql.Candidate) {
	next := func(i int) candOutcome { return p.examine(ctx, question, db, fb, executor, candidates[i]) }
	if workers := min(p.Parallelism, len(candidates)); workers > 1 {
		specCtx, cancelSpec := context.WithCancel(ctx)
		var wg sync.WaitGroup
		// Deferred in this order, speculation is aborted before it is waited
		// out, and the caller never observes background reads against the
		// database after Translate.
		defer wg.Wait()
		defer cancelSpec()
		next = p.speculate(specCtx, &wg, workers, question, db, fb, executor, candidates)
	}
	for i, cand := range candidates {
		if ctx.Err() != nil {
			return
		}
		o := next(i)
		res.Iterations = i + 1
		res.Premises = append(res.Premises, o.premise)
		res.Errors = append(res.Errors, o.err)
		res.Retries += o.retries
		if o.degraded {
			res.Degraded = true
			return
		}
		if o.verified {
			res.Final = cand.Stmt
			res.FinalSQL = cand.SQL
			res.Verified = true
			return
		}
	}
}

// speculate starts workers that claim candidates in beam order and
// examine them under specCtx, and returns the committer's receive
// function: outcome i, blocking until it is published. One buffered slot
// per candidate means workers never block publishing, so an early stop
// cannot deadlock stragglers.
//
// stop is the lowest index known to end the loop (verified, or degraded
// by an open verify breaker); it starts at len(candidates). A worker
// lowers it before publishing such an outcome, and a worker whose claim
// is at or past it returns without examining or publishing. That skips
// only outcomes the committer never reads: it reads in beam order and
// returns at the first stopping outcome, which sits at or before stop,
// so every index it reads is below stop or is stop itself, whose outcome
// is published. Candidates below stop are still examined in full, so the
// Result is the one the sequential loop commits.
func (p *Pipeline) speculate(specCtx context.Context, wg *sync.WaitGroup, workers int, question string, db *storage.Database, fb Feedback, executor *sqleval.Executor, candidates []nl2sql.Candidate) func(int) candOutcome {
	outcomes := make([]chan candOutcome, len(candidates))
	for i := range outcomes {
		outcomes[i] = make(chan candOutcome, 1)
	}
	var claimed, stop atomic.Int64
	stop.Store(int64(len(candidates)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claimed.Add(1) - 1
				if i >= stop.Load() {
					return
				}
				if err := specCtx.Err(); err != nil {
					// Every claimed slot below stop must be published, even
					// under a dead context: the committer may still be
					// draining beam order (the caller's deadline fired
					// mid-loop), and an unpublished slot would block it
					// forever. The outcome is the execute stage observing
					// the dead context before any attempt ran.
					outcomes[i] <- candOutcome{premise: nli.Premise{SQL: candidates[i].SQL}, err: resilience.StageError{Stage: resilience.StageExecute, Attempt: 1, Err: err.Error()}}
					continue
				}
				o := p.examine(specCtx, question, db, fb, executor, candidates[i])
				if o.verified || o.degraded {
					for s := stop.Load(); i < s && !stop.CompareAndSwap(s, i); s = stop.Load() {
					}
				}
				outcomes[i] <- o
			}
		}()
	}
	return func(i int) candOutcome { return <-outcomes[i] }
}
