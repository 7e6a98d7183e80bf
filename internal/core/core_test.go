package core

import (
	"context"
	"sync"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
)

// testVerifier trains one shared verifier on a slice of the Spider train
// split; tests share it because training is the expensive step.
var (
	verifierOnce sync.Once
	testVerifier *nli.Trained
)

func sharedVerifier(t *testing.T) *nli.Trained {
	t.Helper()
	verifierOnce.Do(func() {
		bench := datasets.Spider()
		testVerifier = TrainVerifier(context.Background(), bench,
			TrainDataConfig{Models: []string{"resdsql-3b", "gpt-3.5-turbo", "smbop", "picard-3b"}, MaxExamples: 400, Seed: 1},
			nli.TrainConfig{Seed: 2, Epochs: 16},
		)
	})
	return testVerifier
}

func TestBuildTrainingPairsProtocol(t *testing.T) {
	bench := datasets.Spider()
	pairs := BuildTrainingPairs(context.Background(), bench, TrainDataConfig{Models: []string{"gpt-3.5-turbo"}, MaxExamples: 40, Seed: 3})
	if len(pairs) < 40 {
		t.Fatalf("too few pairs: %d", len(pairs))
	}
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.Label == 1 {
			pos++
		} else {
			neg++
		}
		if p.Premise.Explanation == "" || p.Hypothesis == "" {
			t.Fatal("empty premise or hypothesis")
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("both classes required: pos=%d neg=%d", pos, neg)
	}
}

func TestTrainedVerifierDiscriminates(t *testing.T) {
	v := sharedVerifier(t)
	bench := datasets.Spider()
	// Held-out pairs from a later window of the train split.
	cfg := TrainDataConfig{Models: []string{"resdsql-large"}, MaxExamples: 0, Seed: 9}
	heldBench := &datasets.Benchmark{Name: bench.Name, Databases: bench.Databases, Train: bench.Train[300:380]}
	pairs := BuildTrainingPairs(context.Background(), heldBench, cfg)
	acc := nli.Accuracy(context.Background(), v, pairs)
	if acc < 0.70 {
		t.Fatalf("verifier held-out accuracy = %.2f, want >= 0.70", acc)
	}
}

// The headline property (paper Table I): the feedback loop must improve
// execution accuracy over the base model on held-out dev examples.
func TestCycleSQLImprovesExecutionAccuracy(t *testing.T) {
	v := sharedVerifier(t)
	bench := datasets.Spider()
	dev := bench.Dev
	if len(dev) > 160 {
		dev = dev[:160]
	}
	for _, modelName := range []string{"resdsql-3b", "gpt-3.5-turbo"} {
		p := New(nl2sql.MustByName(modelName), WithVerifier(v), WithBenchmark(bench.Name))
		baseOK, loopOK := 0, 0
		for _, ex := range dev {
			db := bench.DB(ex.DBName)
			base, err := p.BaselineContext(context.Background(), ex, db)
			if err != nil {
				t.Fatal(err)
			}
			if eval.EX(db, base, ex.Gold) {
				baseOK++
			}
			res, err := p.Translate(context.Background(), ex, db)
			if err != nil {
				t.Fatal(err)
			}
			if eval.EX(db, res.Final, ex.Gold) {
				loopOK++
			}
		}
		t.Logf("%s: base %d/%d, +cyclesql %d/%d", modelName, baseOK, len(dev), loopOK, len(dev))
		if loopOK < baseOK {
			t.Fatalf("%s: CycleSQL regressed EX: base %d, loop %d", modelName, baseOK, loopOK)
		}
	}
}

func TestOracleVerifierBoundsTrained(t *testing.T) {
	v := sharedVerifier(t)
	bench := datasets.Spider()
	dev := bench.Dev[:120]
	oracle := OracleVerifier(bench, IndexByQuestion(dev))
	model := nl2sql.MustByName("resdsql-3b")
	trainedOK, oracleOK := 0, 0
	for _, ex := range dev {
		db := bench.DB(ex.DBName)
		pt := New(model, WithVerifier(v), WithBenchmark(bench.Name))
		rt, err := pt.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		if eval.EX(db, rt.Final, ex.Gold) {
			trainedOK++
		}
		po := New(model, WithVerifier(oracle), WithBenchmark(bench.Name))
		ro, err := po.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		if eval.EX(db, ro.Final, ex.Gold) {
			oracleOK++
		}
	}
	t.Logf("trained %d/%d oracle %d/%d", trainedOK, len(dev), oracleOK, len(dev))
	if oracleOK < trainedOK {
		t.Fatalf("oracle (%d) must bound the trained verifier (%d)", oracleOK, trainedOK)
	}
}

func TestTranslateFallsBackToTop1(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	reject := nli.Func{Label: "reject-all", Fn: func(string, nli.Premise) bool { return false }}
	p := New(nl2sql.MustByName("resdsql-3b"), WithVerifier(reject), WithBenchmark(bench.Name))
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Fatal("reject-all verifier cannot verify")
	}
	if res.FinalSQL != res.Candidates[0].SQL {
		t.Fatal("fallback must be the top-1 candidate")
	}
	if res.Iterations != len(res.Candidates) {
		t.Fatalf("must exhaust the beam: %d vs %d", res.Iterations, len(res.Candidates))
	}
}

func TestTranslateAcceptsFirstVerified(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	accept := nli.Func{Label: "accept-all", Fn: func(string, nli.Premise) bool { return true }}
	p := New(nl2sql.MustByName("resdsql-3b"), WithVerifier(accept), WithBenchmark(bench.Name))
	res, err := p.Translate(context.Background(), ex, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Iterations != 1 {
		t.Fatalf("accept-all must verify at iteration 1, got %d verified=%v", res.Iterations, res.Verified)
	}
}

func TestSQL2NLFeedbackIsDataBlind(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	fb := SQL2NLFeedback{}
	rel := execGold(t, bench, ex)
	p1, err := fb.Premise(context.Background(), db, ex.Gold, rel)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Explanation == "" {
		t.Fatal("empty sql2nl explanation")
	}
	// The explanation must not depend on the data: re-deriving it from an
	// empty relation yields the same text.
	p2, _ := fb.Premise(context.Background(), db, ex.Gold, nil)
	if p1.Explanation != p2.Explanation {
		t.Fatal("sql2nl feedback must ignore the data instance")
	}
}

func TestIterationsBoundedByBeam(t *testing.T) {
	v := sharedVerifier(t)
	bench := datasets.Spider()
	p := New(nl2sql.MustByName("picard-3b"), WithVerifier(v), WithBenchmark(bench.Name))
	p.BeamSize = 4
	for _, ex := range bench.Dev[:20] {
		res, err := p.Translate(context.Background(), ex, bench.DB(ex.DBName))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations < 1 || res.Iterations > 4 {
			t.Fatalf("iterations %d out of [1,4]", res.Iterations)
		}
	}
}
