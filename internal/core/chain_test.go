package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/storage"
)

// TestStageNilPolicyZeroAlloc pins that a nil policy makes a stage a bare
// single attempt: a successful link allocates nothing.
func TestStageNilPolicyZeroAlloc(t *testing.T) {
	p := &Pipeline{}
	ctx := context.Background()
	fn := func(context.Context) error { return nil }
	if n := testing.AllocsPerRun(200, func() {
		se, attempts, open := p.stage(ctx, resilience.StageVerify, "question", "SELECT 1", fn)
		if !se.IsZero() || attempts != 1 || open {
			t.Fatalf("stage = %+v, %d, %v", se, attempts, open)
		}
	}); n != 0 {
		t.Fatalf("nil-policy stage allocates %.1f/op, want 0", n)
	}
}

// TestStageNilPolicyFailures: without a policy a failing or panicking link
// is one attempt, recorded as the stage's error and never retried.
func TestStageNilPolicyFailures(t *testing.T) {
	p := &Pipeline{}
	ctx := context.Background()
	calls := 0
	se, attempts, _ := p.stage(ctx, resilience.StageExecute, "k", "", func(context.Context) error {
		calls++
		return resilience.MarkTransient(errors.New("flaky"))
	})
	if calls != 1 || attempts != 1 || se.Stage != resilience.StageExecute || se.Attempt != 1 || !se.Transient {
		t.Fatalf("transient failure: calls=%d attempts=%d se=%+v", calls, attempts, se)
	}
	se, _, _ = p.stage(ctx, resilience.StageExplain, "k", "", func(context.Context) error { panic("boom") })
	if se.Stage != resilience.StageExplain || se.Transient || !strings.Contains(se.Err, "boom") {
		t.Fatalf("panic not recovered into the stage's error: %+v", se)
	}
}

// panicModel crashes on every beam request.
type panicModel struct{}

func (panicModel) Name() string               { return "panic" }
func (panicModel) BaseLatency() time.Duration { return 0 }
func (panicModel) Translate(string, datasets.Example, *storage.Database, int) []nl2sql.Candidate {
	panic("model crashed")
}

// TestBeamPanicFailsTranslation: a crashing model fails the translation,
// with or without a resilience policy, instead of the process.
func TestBeamPanicFailsTranslation(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	accept := nli.Func{Label: "accept", Fn: func(string, nli.Premise) bool { return true }}
	for _, pol := range []*resilience.Policy{nil, retryPolicy()} {
		p := New(panicModel{}, WithVerifier(accept), WithBenchmark(bench.Name), WithResilience(pol))
		res, err := p.Translate(context.Background(), ex, bench.DB(ex.DBName))
		if res != nil || err == nil || !strings.Contains(err.Error(), "model crashed") {
			t.Fatalf("policy %v: got %+v, %v", pol != nil, res, err)
		}
	}
}
