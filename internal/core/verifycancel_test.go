package core

import (
	"context"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
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
	accept := nli.Func{Label: "accept-all", Fn: func(context.Context, string, nli.Premise) bool { return true }}
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

// TestOracleVerifierHonoursDeadline runs the Table III oracle verifier on
// a premise whose SQL, like its gold, counts a three-way self cross join
// of a 300-row table: 27M row combinations folded into one count, so
// memory stays flat while the executions outlast the deadline. The
// verdict must stop at its deadline rather than run both executions to
// completion, and what it returns must not read as a verified premise.
func TestOracleVerifierHonoursDeadline(t *testing.T) {
	s := &schema.Schema{
		Name:   "cross",
		Tables: []*schema.Table{{Name: "t", Columns: []schema.Column{{Name: "a", Type: sqltypes.KindInt, PrimaryKey: true}}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	for i := 0; i < 300; i++ {
		db.MustInsert("t", sqltypes.NewInt(int64(i)))
	}
	const sql = "SELECT COUNT(*) FROM t AS x, t AS y, t AS z"
	ex := datasets.Example{DBName: s.Name, Question: "How many triples of rows are there?", GoldSQL: sql, Gold: sqlparse.MustParse(sql)}
	bench := &datasets.Benchmark{Name: s.Name, Databases: map[string]*storage.Database{s.Name: db}}
	v := OracleVerifier(bench, IndexByQuestion([]datasets.Example{ex}))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	verdict, err := nli.VerifyContext(ctx, v, ex.Question, nli.Premise{SQL: sql})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("oracle verdict took %s under a 20ms deadline", elapsed)
	}
	if verdict && err == nil {
		t.Fatal("a verdict cut off by its deadline must not verify the premise")
	}
}
