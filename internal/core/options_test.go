package core

import (
	"testing"

	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
)

func TestNewDefaultsMatchPaperSettings(t *testing.T) {
	model := nl2sql.MustByName("resdsql-3b")
	p := New(model)
	if p.BeamSize != 8 {
		t.Fatalf("default beam = %d, want 8", p.BeamSize)
	}
	if p.Parallelism != 0 || p.Resilience != nil {
		t.Fatal("defaults must be the sequential, policy-free loop")
	}
	if p.Feedback == nil || p.Feedback.Name() != "cyclesql" {
		t.Fatal("default feedback must be the data-grounded explainer")
	}
	if p.execs == nil {
		t.Fatal("New must arm the warm per-database executor cache")
	}
}

func TestOptionsApply(t *testing.T) {
	model := nl2sql.MustByName("resdsql-3b")
	pol := &resilience.Policy{Retry: resilience.Retry{MaxAttempts: 3}}
	v := nli.FewShotLLM{}
	p := New(model,
		WithVerifier(v),
		WithBenchmark("spider"),
		WithBeamSize(5),
		WithParallelism(4),
		WithResilience(pol),
		WithFeedback(SQL2NLFeedback{}),
	)
	if p.Verifier != v || p.Benchmark != "spider" || p.BeamSize != 5 || p.Parallelism != 4 || p.Resilience != pol {
		t.Fatalf("options not applied: %+v", p)
	}
	if p.Feedback.Name() != "sql2nl" {
		t.Fatalf("feedback option not applied: %s", p.Feedback.Name())
	}
	// Guard rails: a non-positive beam keeps the default, a nil feedback
	// restores it.
	p = New(model, WithBeamSize(0), WithFeedback(nil))
	if p.BeamSize != 8 || p.Feedback.Name() != "cyclesql" {
		t.Fatalf("guard rails failed: beam=%d feedback=%s", p.BeamSize, p.Feedback.Name())
	}
}
