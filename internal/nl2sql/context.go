package nl2sql

import (
	"context"

	"cyclesql/internal/datasets"
	"cyclesql/internal/storage"
)

// ContextModel is implemented by models whose beam can honor cancellation
// — a deployment translator is a remote inference, so an in-flight beam
// request should be abandonable when its example's budget dies (a
// per-example timeout, a SIGINT). Models without real waits (the
// simulators) don't need it: TranslateContext below falls back to the
// plain synchronous Translate for them.
type ContextModel interface {
	Model
	// TranslateContext is Translate with cancellation: it returns the
	// context's error — and no candidates — as soon as the context is done.
	TranslateContext(ctx context.Context, benchmark string, ex datasets.Example, db *storage.Database, k int) ([]Candidate, error)
}

// TranslateContext runs a model's beam under a context: a context already
// done short-circuits before any model work, a ContextModel is handed the
// context to honor mid-inference, and any other Model runs its plain
// synchronous Translate (it has no waits worth interrupting).
func TranslateContext(ctx context.Context, m Model, benchmark string, ex datasets.Example, db *storage.Database, k int) ([]Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cm, ok := m.(ContextModel); ok {
		return cm.TranslateContext(ctx, benchmark, ex, db, k)
	}
	return m.Translate(benchmark, ex, db, k), nil
}
