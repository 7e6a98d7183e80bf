package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// okVerifier accepts everything instantly; the faults are the wrapper's.
type okVerifier struct{}

func (okVerifier) Name() string                      { return "ok" }
func (okVerifier) Score(string, nli.Premise) float64 { return 0.75 }
func (okVerifier) VerifyContext(context.Context, string, nli.Premise) (bool, error) {
	return true, nil
}

// verdict runs one wrapped verify call and classifies the outcome.
func verdict(t *testing.T, v nli.Verifier, ctx context.Context, key string) error {
	t.Helper()
	_, err := nli.VerifyContext(ctx, v, key, nli.Premise{SQL: "SELECT 1"})
	return err
}

// TestDrawsAreDeterministic: two injectors with the same config fault the
// same calls — the property the chaos-parity suite stands on.
func TestDrawsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, ErrorRate: 0.3}
	a, b := New(cfg).WrapVerifier(okVerifier{}), New(cfg).WrapVerifier(okVerifier{})
	faulted := 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("question %d", i)
		ea := verdict(t, a, context.Background(), key)
		eb := verdict(t, b, context.Background(), key)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("same config diverged on call %d: %v vs %v", i, ea, eb)
		}
		if ea != nil {
			faulted++
			if !resilience.IsTransient(ea) {
				t.Fatalf("injected error must be transient: %v", ea)
			}
		}
	}
	// The hash is uniform enough that 30% of 400 keys lands well inside
	// [60, 180]; the exact count is pinned by the seed either way.
	if faulted < 60 || faulted > 180 {
		t.Fatalf("ErrorRate 0.3 fired on %d/400 calls", faulted)
	}
	if New(Config{Seed: 8, ErrorRate: 0.3}).WrapVerifier(okVerifier{}) == a {
		t.Fatal("different seeds must build distinct wrappers")
	}
}

// TestAttemptRerollsFaults: the retry attempt number is hashed into every
// draw, so a call that faulted on attempt 1 gets a fresh draw on attempt
// 2 — without this, retries could never heal anything.
func TestAttemptRerollsFaults(t *testing.T) {
	v := New(Config{Seed: 7, ErrorRate: 0.5}).WrapVerifier(okVerifier{})
	healed := false
	for i := 0; i < 64 && !healed; i++ {
		key := fmt.Sprintf("q%d", i)
		if verdict(t, v, context.Background(), key) == nil {
			continue // no fault on attempt 1, nothing to reroll
		}
		retry := resilience.WithAttempt(context.Background(), 2)
		if verdict(t, v, retry, key) == nil {
			healed = true
		}
	}
	if !healed {
		t.Fatal("no faulted call healed on attempt 2 across 64 keys — attempts are not rerolling draws")
	}
}

// TestFaultKindsIndependent pins each rate to its own fault kind and the
// stats counter that records it.
func TestFaultKindsIndependent(t *testing.T) {
	t.Run("error", func(t *testing.T) {
		in := New(Config{Seed: 1, ErrorRate: 1})
		err := verdict(t, in.WrapVerifier(okVerifier{}), context.Background(), "q")
		if err == nil || !resilience.IsTransient(err) || !strings.Contains(err.Error(), "injected error") {
			t.Fatalf("ErrorRate 1 must fault every call transiently: %v", err)
		}
		if s := in.Stats(); s.Errors != 1 || s.Total() != 1 {
			t.Fatalf("stats must count the error: %+v", s)
		}
	})
	t.Run("panic", func(t *testing.T) {
		in := New(Config{Seed: 1, PanicRate: 1})
		func() {
			defer func() {
				v := recover()
				err, ok := v.(error)
				if !ok || !resilience.IsTransient(err) {
					t.Fatalf("panic value must be a transient error, got %v", v)
				}
			}()
			verdict(t, in.WrapVerifier(okVerifier{}), context.Background(), "q")
			t.Fatal("PanicRate 1 must panic")
		}()
		if s := in.Stats(); s.Panics != 1 {
			t.Fatalf("stats must count the panic: %+v", s)
		}
	})
	t.Run("hang resolves at HangTimeout", func(t *testing.T) {
		in := New(Config{Seed: 1, HangRate: 1, HangTimeout: time.Millisecond})
		start := time.Now()
		err := verdict(t, in.WrapVerifier(okVerifier{}), context.Background(), "q")
		if err == nil || !resilience.IsTransient(err) || !strings.Contains(err.Error(), "hang") {
			t.Fatalf("a hang must resolve into a transient timeout error: %v", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("hang ignored its timeout")
		}
		if s := in.Stats(); s.Hangs != 1 {
			t.Fatalf("stats must count the hang: %+v", s)
		}
	})
	t.Run("hang honors cancellation", func(t *testing.T) {
		in := New(Config{Seed: 1, HangRate: 1, HangTimeout: time.Hour})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- verdict(t, in.WrapVerifier(okVerifier{}), ctx, "q") }()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled hang must return the context error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("hang ignored cancellation")
		}
	})
	t.Run("latency slows but never fails", func(t *testing.T) {
		in := New(Config{Seed: 1, LatencyRate: 1, Latency: time.Microsecond})
		if err := verdict(t, in.WrapVerifier(okVerifier{}), context.Background(), "q"); err != nil {
			t.Fatalf("latency alone must not fail the call: %v", err)
		}
		if s := in.Stats(); s.Latencies != 1 || s.Errors+s.Hangs+s.Panics != 0 {
			t.Fatalf("stats must count only the latency: %+v", s)
		}
	})
}

// TestDisabledInjectorUnwraps: the zero config adds no wrappers at all,
// keeping the fault-free fast path allocation- and indirection-free.
func TestDisabledInjectorUnwraps(t *testing.T) {
	in := New(Config{})
	if in.Config().Enabled() {
		t.Fatal("zero config must be disabled")
	}
	m := nl2sql.MustByName("resdsql-3b")
	if in.WrapModel(m) != m {
		t.Fatal("disabled injector must return the model unwrapped")
	}
	var v nli.Verifier = okVerifier{}
	if in.WrapVerifier(v) != v {
		t.Fatal("disabled injector must return the verifier unwrapped")
	}
	// LatencyRate without a Latency duration injects nothing either.
	if (Config{LatencyRate: 1}).Enabled() {
		t.Fatal("latency rate without a duration must stay disabled")
	}
}

// TestWrappersDelegateDiagnostics: Name, Score and the plain synchronous
// Translate bypass injection — only the loop's context-aware calls fault.
func TestWrappersDelegateDiagnostics(t *testing.T) {
	in := New(Config{Seed: 1, ErrorRate: 1, PanicRate: 1})
	v := in.WrapVerifier(okVerifier{})
	if v.Name() != "ok" || v.Score("h", nli.Premise{}) != 0.75 {
		t.Fatal("diagnostic reads must delegate untouched")
	}
	m := in.WrapModel(nl2sql.MustByName("resdsql-3b"))
	if m.Name() != "resdsql-3b" || m.BaseLatency() <= 0 {
		t.Fatal("model metadata must delegate untouched")
	}
	bench := datasets.Spider()
	ex := bench.Dev[0]
	if cands := m.Translate(bench.Name, ex, bench.DB(ex.DBName), 3); len(cands) == 0 {
		t.Fatal("plain Translate must delegate untouched")
	}
	if s := in.Stats(); s.Total() != 0 {
		t.Fatalf("no context-aware call ran, nothing may have fired: %+v", s)
	}
}

// TestWrapModelInjects: the beam faults on its context path and the error
// reaches the caller before any model work.
func TestWrapModelInjects(t *testing.T) {
	in := New(Config{Seed: 1, ErrorRate: 1})
	m := in.WrapModel(nl2sql.MustByName("resdsql-3b"))
	bench := datasets.Spider()
	ex := bench.Dev[0]
	cands, err := nl2sql.TranslateContext(context.Background(), m, bench.Name, ex, bench.DB(ex.DBName), 3)
	if err == nil || cands != nil || !resilience.IsTransient(err) {
		t.Fatalf("beam must fault transiently: %v, %v", cands, err)
	}
}

// stubFeedback returns a fixed premise; faults are the wrapper's.
type stubFeedback struct{}

func (stubFeedback) Name() string { return "stub" }
func (stubFeedback) Premise(context.Context, *storage.Database, *sqlast.SelectStmt, *sqltypes.Relation) (nli.Premise, error) {
	return nli.Premise{SQL: "SELECT 1", Explanation: "one row"}, nil
}

// TestWrapFeedbackInjects: premise generation faults per candidate SQL.
func TestWrapFeedbackInjects(t *testing.T) {
	in := New(Config{Seed: 1, ErrorRate: 1})
	f := in.WrapFeedback(stubFeedback{})
	if f.Name() != "stub" {
		t.Fatal("feedback name must delegate untouched")
	}
	stmt := sqlast.Wrap(&sqlast.SelectCore{
		Items: []sqlast.SelectItem{{Star: true}},
		From:  &sqlast.FromClause{Base: sqlast.TableRef{Name: "t"}},
	})
	_, err := f.Premise(context.Background(), nil, stmt, nil)
	if err == nil || !resilience.IsTransient(err) {
		t.Fatalf("feedback must fault transiently: %v", err)
	}
	if s := in.Stats(); s.Errors != 1 {
		t.Fatalf("stats must count the feedback fault: %+v", s)
	}
}
