package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
)

// TestTranslatePreCancelled pins the contract that a dead context never
// produces a Result: both loop paths return the context's error without
// examining a single candidate.
func TestTranslatePreCancelled(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		examined := 0
		v := nli.Func{Label: "count", Fn: func(context.Context, string, nli.Premise) bool { examined++; return false }}
		p := &Pipeline{Model: nl2sql.MustByName("resdsql-3b"), Verifier: v, Benchmark: bench.Name}
		p.Parallelism = workers
		res, err := p.Translate(ctx, ex, db)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: want context.Canceled, got %v", workers, err)
		}
		if res != nil {
			t.Fatalf("parallelism=%d: no Result may accompany a context error", workers)
		}
		if examined != 0 {
			t.Fatalf("parallelism=%d: %d candidates examined under a dead context", workers, examined)
		}
	}
}

// TestTranslateDeadlineMidLoop expires the context partway through the
// beam (a verifier that outlives the deadline stands in for slow
// inference) and requires Translate to stop early with the deadline
// error instead of exhausting the remaining candidates.
func TestTranslateDeadlineMidLoop(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	for _, workers := range []int{1, 2} {
		slowReject := nli.Func{Label: "slow-reject", Fn: func(context.Context, string, nli.Premise) bool {
			time.Sleep(30 * time.Millisecond)
			return false
		}}
		p := &Pipeline{Model: nl2sql.MustByName("resdsql-3b"), Verifier: slowReject, Benchmark: bench.Name}
		p.Parallelism = workers
		ctx, cancel := context.WithTimeout(context.Background(), 45*time.Millisecond)
		res, err := p.Translate(ctx, ex, db)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parallelism=%d: want context.DeadlineExceeded, got %v (res=%v)", workers, err, res)
		}
	}
}
