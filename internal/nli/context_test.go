package nli

import (
	"context"
	"testing"
	"time"
)

func verdictOf(v bool) Func {
	return Func{Label: "fixed", Fn: func(context.Context, string, Premise) bool { return v }}
}

func TestVerifyContextVerdict(t *testing.T) {
	// A verifier with no waits of its own returns its verdict with no error.
	ok, err := VerifyContext(context.Background(), verdictOf(true), "q", Premise{})
	if err != nil || !ok {
		t.Fatalf("verdict = %v, %v", ok, err)
	}
	ok, err = VerifyContext(context.Background(), verdictOf(false), "q", Premise{})
	if err != nil || ok {
		t.Fatalf("verdict = %v, %v", ok, err)
	}
}

func TestVerifyContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	v := Func{Label: "observer", Fn: func(context.Context, string, Premise) bool { called = true; return true }}
	if _, err := VerifyContext(ctx, v, "q", Premise{}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if called {
		t.Fatal("a dead context must short-circuit before any verifier work")
	}
}

func TestLatencyVerifyWaits(t *testing.T) {
	l := Latency{V: verdictOf(true), D: 10 * time.Millisecond}
	start := time.Now()
	if ok, err := VerifyContext(context.Background(), l, "q", Premise{}); err != nil || !ok {
		t.Fatalf("wrapped verdict lost: %v, %v", ok, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("VerifyContext must charge the full simulated latency")
	}
	// Score passes through without the simulated inference wait.
	start = time.Now()
	l.Score("q", Premise{})
	if time.Since(start) > 5*time.Millisecond {
		t.Fatal("Score must not charge the latency")
	}
}

func TestLatencyComposesContextAware(t *testing.T) {
	// A context-aware verifier nested inside Latency must still observe
	// cancellation: the context threads through to the inner inference.
	inner := Latency{V: verdictOf(true), D: 10 * time.Second}
	outer := Latency{V: inner, D: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := VerifyContext(ctx, outer, "q", Premise{}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation must reach the nested verifier's wait")
	}
}

func TestLatencyVerifyContextAborts(t *testing.T) {
	l := Latency{V: verdictOf(true), D: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := VerifyContext(ctx, l, "q", Premise{})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation must abort the simulated inference mid-wait")
	}
}
