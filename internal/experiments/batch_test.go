package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
)

// sweepResults translates every example of dev through one shared
// pipeline on a Batch pool with the given worker count, returning
// per-example Results in dev order.
func sweepResults(t *testing.T, dev []datasets.Example, workers int) []*core.Result {
	t.Helper()
	bench := datasets.Spider()
	p := &core.Pipeline{Model: nl2sql.MustByName("resdsql-3b"), Verifier: Verifier(tinyLimits), Benchmark: bench.Name}
	// Candidate-level parallelism composes with example-level workers;
	// keeping it on in every sweep exercises the composition the -workers
	// and -parallel flags expose together.
	p.Parallelism = 2
	results := make([]*core.Result, len(dev))
	errs := Batch{Workers: workers}.Run(context.Background(), len(dev), func(ctx context.Context, i int) error {
		res, err := p.Translate(ctx, dev[i], bench.DB(dev[i].DBName))
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err := firstError(dev, errs); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestBatchWorkerParity is the acceptance bar for the batched driver:
// per-example Results (Final/Verified/Iterations/Premises/Errors) are
// bit-identical across worker counts 1, 4 and 8 over the Spider dev
// slice the other parity suites use.
func TestBatchWorkerParity(t *testing.T) {
	bench := datasets.Spider()
	dev := bench.Dev
	if len(dev) > 200 {
		dev = dev[:200]
	}
	want := sweepResults(t, dev, 1)
	for _, workers := range []int{4, 8} {
		got := sweepResults(t, dev, workers)
		for i := range dev {
			w, g := want[i], got[i]
			if w.FinalSQL != g.FinalSQL || w.Verified != g.Verified || w.Iterations != g.Iterations {
				t.Fatalf("workers=%d diverges on %q:\nseq: final=%q verified=%v iter=%d\npar: final=%q verified=%v iter=%d",
					workers, dev[i].Question, w.FinalSQL, w.Verified, w.Iterations, g.FinalSQL, g.Verified, g.Iterations)
			}
			if len(w.Premises) != len(g.Premises) || len(w.Errors) != len(g.Errors) {
				t.Fatalf("workers=%d premise/error counts diverge on %q", workers, dev[i].Question)
			}
			for j := range w.Premises {
				if w.Premises[j] != g.Premises[j] {
					t.Fatalf("workers=%d premise %d diverges on %q", workers, j, dev[i].Question)
				}
				if w.Errors[j] != g.Errors[j] {
					t.Fatalf("workers=%d error %d diverges on %q", workers, j, dev[i].Question)
				}
			}
		}
	}
}

// TestBatchTimeoutIsolatesHungExample proves the per-example deadline:
// one example that blocks until its context fires gets the deadline
// error, while the examples sharing its worker pool complete normally
// and the sweep returns promptly.
func TestBatchTimeoutIsolatesHungExample(t *testing.T) {
	const n, hung = 6, 1
	var completed atomic.Int64
	start := time.Now()
	errs := Batch{Workers: 2, Timeout: 50 * time.Millisecond}.Run(context.Background(), n,
		func(ctx context.Context, i int) error {
			if i == hung {
				<-ctx.Done() // a hung example: only the deadline frees it
				return ctx.Err()
			}
			completed.Add(1)
			return nil
		})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep stalled for %s behind one hung example", elapsed)
	}
	if !errors.Is(errs[hung], context.DeadlineExceeded) {
		t.Fatalf("hung example must record its deadline, got %v", errs[hung])
	}
	for i, err := range errs {
		if i != hung && err != nil {
			t.Fatalf("example %d must be unaffected, got %v", i, err)
		}
	}
	if completed.Load() != n-1 {
		t.Fatalf("want %d completed examples, got %d", n-1, completed.Load())
	}
}

// TestBatchPanicIsolation pins the error-capture contract: a panicking
// example records its panic in its own error slot without tearing down
// the sweep.
func TestBatchPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		errs := Batch{Workers: workers}.Run(context.Background(), 5, func(_ context.Context, i int) error {
			if i == 2 {
				panic("boom")
			}
			return nil
		})
		if errs[2] == nil || !strings.Contains(errs[2].Error(), "panicked") || !strings.Contains(errs[2].Error(), "boom") {
			t.Fatalf("workers=%d: want recovered panic in slot 2, got %v", workers, errs[2])
		}
		for i, err := range errs {
			if i != 2 && err != nil {
				t.Fatalf("workers=%d: example %d must survive the panic, got %v", workers, i, err)
			}
		}
	}
}

// TestBatchParentCancellation: a cancelled parent context marks every
// unstarted example with the context error instead of running it.
func TestBatchParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	errs := Batch{Workers: 4}.Run(ctx, 8, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if ran.Load() != 0 {
		t.Fatalf("no example may start under a dead parent context, %d ran", ran.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("slot %d must record the cancellation, got %v", i, err)
		}
	}
}

// TestBatchSequentialClaimOrder: Workers <= 1 runs examples inline in
// index order, reproducing the pre-batch sequential drivers exactly.
func TestBatchSequentialClaimOrder(t *testing.T) {
	var order []int
	Batch{}.Run(context.Background(), 5, func(_ context.Context, i int) error {
		order = append(order, i) // safe: sequential mode shares the caller's goroutine
		return nil
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential sweep visited %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("want 5 visits, got %d", len(order))
	}
}
