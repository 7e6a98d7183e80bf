package core

import (
	"context"
	"sync/atomic"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// countingFeedback counts the premises it generates; the parallel loop
// calls it from several workers.
type countingFeedback struct {
	SQL2NLFeedback
	calls atomic.Int64
}

func (f *countingFeedback) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	f.calls.Add(1)
	return f.SQL2NLFeedback.Premise(ctx, db, stmt, result)
}

// beamRecorder records the beam size the loop asks the model for.
type beamRecorder struct {
	nl2sql.Model
	k int
}

func (m *beamRecorder) Translate(benchmark string, ex datasets.Example, db *storage.Database, k int) []nl2sql.Candidate {
	m.k = k
	return m.Model.Translate(benchmark, ex, db, k)
}

// TestNewDefaultsMatchPaperSettings pins the defaults of a bare literal:
// the paper's settings (beam 8, the data-grounded feedback, the sequential
// policy-free loop), with one executor and one explainer per database kept
// warm across Translate calls.
func TestNewDefaultsMatchPaperSettings(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	model := &beamRecorder{Model: nl2sql.MustByName("resdsql-3b")}
	reject := nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	p := &Pipeline{Model: model, Verifier: reject, Benchmark: bench.Name}

	var execs [2]*sqleval.Executor
	for i := range execs {
		res, err := p.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		if res.Premises[0].Explanation == "" {
			t.Fatalf("translate %d: top-1 candidate got no data-grounded premise: %+v", i, res.Errors[0])
		}
		if n := cachedEntries(&p.execs); n != 1 {
			t.Fatalf("translate %d: %d cached executors, want 1", i, n)
		}
		execs[i] = p.Executor(db)
	}
	if execs[0] == nil || execs[0] != execs[1] {
		t.Fatal("two Translate calls on one database must reuse one executor")
	}

	fb := &p.feedback
	if n := cachedEntries(&fb.explainers); n != 1 {
		t.Fatalf("the default feedback cached %d explainers, want one for the database", n)
	}
	if e := fb.explainer(db); e == nil || e != fb.explainer(db) {
		t.Fatal("the default feedback must hand out one explainer per database")
	}

	if model.k != 8 {
		t.Fatalf("default beam = %d, want 8", model.k)
	}
	if p.Feedback != nil || fb.Name() != "cyclesql" {
		t.Fatal("a nil Feedback must resolve to the pipeline's data-grounded feedback")
	}
	if p.Parallelism != 0 || p.Resilience != nil {
		t.Fatal("defaults must be the sequential, policy-free loop")
	}
}

// TestOptionsApply checks that the fields set on a literal take effect: the
// beam size the model is asked for, the feedback that writes every premise
// (the pipeline's own data-grounded feedback stays unused), and the
// resilience policy that wraps the stages. A non-positive beam keeps the
// paper's 8.
func TestOptionsApply(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	model := &beamRecorder{Model: nl2sql.MustByName("resdsql-3b")}
	reject := nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	pol := &resilience.Policy{Retry: resilience.Retry{MaxAttempts: 3}, Collector: &resilience.Collector{}}
	fb := &countingFeedback{}
	p := &Pipeline{
		Model:       model,
		Verifier:    reject,
		Benchmark:   bench.Name,
		BeamSize:    5,
		Parallelism: 4,
		Resilience:  pol,
		Feedback:    fb,
	}
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	if model.k != 5 {
		t.Fatalf("beam = %d, want 5", model.k)
	}
	if n := fb.calls.Load(); n < int64(len(res.Premises)) || len(res.Premises) == 0 {
		t.Fatalf("feedback wrote %d premises, the loop examined %d", n, len(res.Premises))
	}
	if fb.Name() != "sql2nl" || cachedEntries(&p.feedback.explainers) != 0 {
		t.Fatal("a set Feedback must replace the pipeline's data-grounded feedback")
	}
	if pol.Stats().Attempts == 0 {
		t.Fatal("the resilience policy saw no stage attempts")
	}

	p = &Pipeline{Model: model, Verifier: reject, Benchmark: bench.Name, BeamSize: -1}
	if _, err := p.Translate(context.Background(), ex, db); err != nil {
		t.Fatal(err)
	}
	if model.k != 8 {
		t.Fatalf("non-positive beam: model asked for %d, want 8", model.k)
	}
}
