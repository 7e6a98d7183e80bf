package core

import (
	"context"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
)

// gatedVerifier validates exactly one candidate (by its premise SQL)
// immediately; every other candidate's "inference" blocks until the loop
// cancels it. It stands in for a verifier whose forward pass is in flight
// when an earlier beam candidate validates.
type gatedVerifier struct {
	winnerSQL string
	aborted   chan struct{} // closed when a straggler observes cancellation
}

func (g *gatedVerifier) Name() string                      { return "gated" }
func (g *gatedVerifier) Score(string, nli.Premise) float64 { return 0 }

func (g *gatedVerifier) VerifyContext(ctx context.Context, h string, p nli.Premise) (bool, error) {
	if p.SQL == g.winnerSQL {
		return true, nil
	}
	select {
	case <-ctx.Done():
		close(g.aborted)
		return false, ctx.Err()
	case <-time.After(30 * time.Second):
		return false, nil
	}
}

// TestParallelWinnerAbortsStragglerVerify closes the cancellation story:
// once a candidate validates, a straggler whose (simulated) verifier
// inference is already in flight must be aborted through VerifyContext
// rather than left to run to completion — previously only its SQL
// execution and explanation honored the cancellation.
func TestParallelWinnerAbortsStragglerVerify(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)

	winner := ex.Gold
	straggler := ex.Gold.Clone()
	lim := int64(1)
	straggler.Cores[len(straggler.Cores)-1].Limit = &lim
	if winner.SQL() == straggler.SQL() {
		t.Fatal("candidates must render distinct SQL")
	}
	v := &gatedVerifier{winnerSQL: nli.SQLOneLine(winner.SQL()), aborted: make(chan struct{})}
	model := stubModel{cands: []nl2sql.Candidate{candidateOf(winner), candidateOf(straggler)}}
	p := &Pipeline{Model: model, Verifier: v, Benchmark: bench.Name}
	p.Parallelism = 2

	start := time.Now()
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Iterations != 1 || res.FinalSQL != winner.SQL() {
		t.Fatalf("winner must validate at iteration 1: %+v", res)
	}
	// Translate waits out in-flight speculation before returning, so a
	// bounded wall clock proves the straggler's inference was aborted, not
	// awaited. The explicit channel check distinguishes "aborted" from
	// "never started" (a worker may not have claimed the straggler yet,
	// in which case finishing fast is just as correct).
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("straggler verifier ran to completion (%s) instead of aborting", elapsed)
	}
	select {
	case <-v.aborted:
	default:
		// The straggler was never claimed before the winner committed —
		// acceptable (cancellation prevented the claim entirely).
	}
}

// TestSequentialVerifyContextParity pins that the sequential loop takes a
// verifier's verdict unchanged through nli.VerifyContext, and Errors stays
// empty for completed verdicts.
func TestSequentialVerifyContextParity(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	accept := nli.Func{Label: "accept-all", Fn: func(string, nli.Premise) bool { return true }}
	p := &Pipeline{Model: stubModel{cands: []nl2sql.Candidate{candidateOf(ex.Gold)}}, Verifier: accept, Benchmark: bench.Name}
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || !res.Errors[0].IsZero() {
		t.Fatalf("verdict through VerifyContext diverged: %+v", res)
	}
}

var _ nli.Verifier = (*gatedVerifier)(nil)
