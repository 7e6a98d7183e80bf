package core

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// stopBeam returns n distinct, executable candidates: the first dev
// example's gold query under LIMIT 1..n.
func stopBeam(t *testing.T, n int) (datasets.Example, *storage.Database, []nl2sql.Candidate) {
	t.Helper()
	bench := datasets.Spider()
	ex := bench.Dev[0]
	cands := make([]nl2sql.Candidate, n)
	for i := range cands {
		stmt := ex.Gold.Clone()
		lim := int64(i + 1)
		stmt.Cores[len(stmt.Cores)-1].Limit = &lim
		cands[i] = candidateOf(stmt)
		if i > 0 && cands[i].SQL == cands[i-1].SQL {
			t.Fatal("candidates must render distinct SQL")
		}
	}
	return ex, bench.DB(ex.DBName), cands
}

// beamFeedback is the data-grounded feedback that records which beam
// indexes reached Premise and closes late once any index >= from does.
type beamFeedback struct {
	DataGrounded
	index map[*sqlast.SelectStmt]int
	from  int

	mu      sync.Mutex
	reached []int
	late    chan struct{}
	isLate  bool
}

func newBeamFeedback(cands []nl2sql.Candidate, from int) *beamFeedback {
	f := &beamFeedback{index: make(map[*sqlast.SelectStmt]int, len(cands)), from: from, late: make(chan struct{})}
	for i, c := range cands {
		f.index[c.Stmt] = i
	}
	return f
}

func (f *beamFeedback) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, rel *sqltypes.Relation) (nli.Premise, error) {
	i := f.index[stmt]
	f.mu.Lock()
	f.reached = append(f.reached, i)
	if i >= f.from && !f.isLate {
		f.isLate = true
		close(f.late)
	}
	f.mu.Unlock()
	return f.DataGrounded.Premise(ctx, db, stmt, rel)
}

// lateReached returns the indexes >= from that reached Premise.
func (f *beamFeedback) lateReached() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var late []int
	for _, i := range f.reached {
		if i >= f.from {
			late = append(late, i)
		}
	}
	return late
}

// scriptedVerifier accepts the winner's premise at once. Every other
// verdict is a rejection once release closes, or the context's error once
// the context is done; a nil release never closes.
type scriptedVerifier struct {
	winnerSQL string
	release   <-chan struct{}
}

func (v *scriptedVerifier) Name() string                      { return "scripted" }
func (v *scriptedVerifier) Score(string, nli.Premise) float64 { return 0 }

func (v *scriptedVerifier) VerifyContext(ctx context.Context, _ string, p nli.Premise) (bool, error) {
	if p.SQL == v.winnerSQL {
		return true, nil
	}
	select {
	case <-v.release:
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// sameResult fails t unless par carries the sequential loop's outcome.
func sameResult(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.Final != par.Final || seq.FinalSQL != par.FinalSQL || seq.Verified != par.Verified ||
		seq.Iterations != par.Iterations || seq.Retries != par.Retries || seq.Degraded != par.Degraded {
		t.Fatalf("parallel result diverges from sequential:\nseq: final=%q verified=%v iter=%d retries=%d degraded=%v\npar: final=%q verified=%v iter=%d retries=%d degraded=%v",
			seq.FinalSQL, seq.Verified, seq.Iterations, seq.Retries, seq.Degraded,
			par.FinalSQL, par.Verified, par.Iterations, par.Retries, par.Degraded)
	}
	if !slices.Equal(seq.Premises, par.Premises) || !slices.Equal(seq.Errors, par.Errors) {
		t.Fatalf("parallel premises/errors diverge from sequential:\nseq: %+v %+v\npar: %+v %+v", seq.Premises, seq.Errors, par.Premises, par.Errors)
	}
}

// TestSpeculationStopsAtLaterWinner pins the stop index when the winner
// is not top-1: candidate 2 validates at once while candidates 0 and 1
// are still in verify, and they stay there until a candidate >= 3 reaches
// the feedback (or 200 ms pass). The worker that examined candidate 2
// must not claim candidate 3 while the committer still waits on outcome
// 0, since no outcome past 2 is ever read.
func TestSpeculationStopsAtLaterWinner(t *testing.T) {
	ex, db, cands := stopBeam(t, 8)
	const winner = 2
	run := func(parallelism int) (*Result, []int) {
		fb := newBeamFeedback(cands, winner+1)
		release := make(chan struct{})
		go func() {
			select {
			case <-fb.late:
			case <-time.After(200 * time.Millisecond):
			}
			close(release)
		}()
		v := &scriptedVerifier{winnerSQL: nli.SQLOneLine(cands[winner].SQL), release: release}
		p := &Pipeline{Model: stubModel{cands: cands}, Verifier: v, Feedback: fb, Benchmark: datasets.Spider().Name, Parallelism: parallelism}
		res, err := p.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		return res, fb.lateReached()
	}
	seq, _ := run(1)
	par, late := run(3)
	if len(late) > 0 {
		t.Fatalf("candidates %v past the winner reached the feedback", late)
	}
	if !par.Verified || par.Iterations != winner+1 || par.Final != cands[winner].Stmt {
		t.Fatalf("candidate %d must validate at iteration %d: final=%q verified=%v iter=%d",
			winner, winner+1, par.FinalSQL, par.Verified, par.Iterations)
	}
	sameResult(t, seq, par)
}

// TestSpeculationStopsAtTop1Winner pins the stop index at 0: candidate 0
// validates at once and every other candidate's verify waits until its
// context is done, so the workers holding candidates 1-3 are released
// only by the committer's cancel; none of the 4 workers may claim a
// candidate >= 4 meanwhile.
func TestSpeculationStopsAtTop1Winner(t *testing.T) {
	ex, db, cands := stopBeam(t, 8)
	const workers = 4
	run := func(parallelism int) (*Result, []int) {
		fb := newBeamFeedback(cands, workers)
		v := &scriptedVerifier{winnerSQL: nli.SQLOneLine(cands[0].SQL)}
		p := &Pipeline{Model: stubModel{cands: cands}, Verifier: v, Feedback: fb, Benchmark: datasets.Spider().Name, Parallelism: parallelism}
		res, err := p.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		return res, fb.lateReached()
	}
	seq, _ := run(1)
	par, late := run(workers)
	if len(late) > 0 {
		t.Fatalf("candidates %v past the top-1 winner reached the feedback", late)
	}
	if !par.Verified || par.Iterations != 1 || par.Final != cands[0].Stmt {
		t.Fatalf("top-1 must validate at iteration 1: final=%q verified=%v iter=%d", par.FinalSQL, par.Verified, par.Iterations)
	}
	sameResult(t, seq, par)
}
