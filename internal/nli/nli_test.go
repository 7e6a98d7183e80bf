package nli

import (
	"context"
	"testing"

	"cyclesql/internal/nn"
)

func premiseFor(expl string) Premise {
	return Premise{
		Explanation: expl,
		SQL:         "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'",
		Result:      "1 rows ; 2",
	}
}

func TestPremiseText(t *testing.T) {
	p := Premise{Explanation: "e", SQL: "s", Result: "r"}
	if p.Text() != "e | s | r" {
		t.Fatalf("Text = %q", p.Text())
	}
}

func TestFeaturizerDimensions(t *testing.T) {
	f := DefaultFeaturizer
	x := f.Features("Show all flight numbers.", premiseFor("there are 2 flights"))
	if len(x) != f.Dim() {
		t.Fatalf("feature width %d != Dim %d", len(x), f.Dim())
	}
}

func TestFeaturizerAlignmentOrdering(t *testing.T) {
	f := DefaultFeaturizer
	q := "How many flights use aircraft Airbus A340-300?"
	aligned := f.Features(q, premiseFor("filtered by name equal to Airbus A340-300, there are 2 flights in total"))
	misaligned := f.Features(q, Premise{
		Explanation: "the largest distance is 8430 for aircraft Boeing 747-400",
		SQL:         "SELECT max(distance) FROM aircraft",
		Result:      "1 rows ; 8430",
	})
	if aligned[0] <= misaligned[0] || aligned[1] <= misaligned[1] {
		t.Fatalf("aligned premise must overlap more: %v vs %v", aligned[:2], misaligned[:2])
	}
}

func TestSQLLiteralTokens(t *testing.T) {
	toks := sqlLiteralTokens("SELECT a FROM t WHERE x = 'Airbus A340-300' AND y = 'red'")
	joined := ""
	for _, tok := range toks {
		joined += tok + " "
	}
	if joined == "" {
		t.Fatal("no literal tokens extracted")
	}
	found := false
	for _, tok := range toks {
		if tok == "airbus" {
			found = true
		}
	}
	if !found {
		t.Fatalf("airbus missing from %v", toks)
	}
}

func TestSelectClauseTokens(t *testing.T) {
	toks := selectClauseTokens("SELECT count(*), name FROM t WHERE x = 1")
	hasCount, hasName, hasWhereCol := false, false, false
	for _, tok := range toks {
		switch tok {
		case "count":
			hasCount = true
		case "name":
			hasName = true
		case "x":
			hasWhereCol = true
		}
	}
	if !hasCount || !hasName || hasWhereCol {
		t.Fatalf("selectClauseTokens = %v", toks)
	}
}

func TestTrainSeparatesSyntheticPairs(t *testing.T) {
	// Construct pairs where entailment = shared key token.
	var pairs []Pair
	for i := 0; i < 120; i++ {
		pairs = append(pairs,
			Pair{Hypothesis: "how many flights from chicago", Premise: premiseFor("filtered by origin equal to Chicago, there are 2 flights in total"), Label: 1},
			Pair{Hypothesis: "how many flights from chicago", Premise: premiseFor("the largest distance is 8430"), Label: 0},
		)
	}
	v := Train(pairs, TrainConfig{Seed: 3, Epochs: 20})
	if acc := Accuracy(context.Background(), v, pairs); acc < 0.95 {
		t.Fatalf("trivially separable pairs must train to >=0.95, got %.3f", acc)
	}
}

func TestCalibratedThresholdInRange(t *testing.T) {
	var pairs []Pair
	for i := 0; i < 40; i++ {
		pairs = append(pairs,
			Pair{Hypothesis: "count flights", Premise: premiseFor("there are 2 flights in total"), Label: 1},
			Pair{Hypothesis: "count flights", Premise: premiseFor("the name is Boeing"), Label: 0},
		)
	}
	v := Train(pairs, TrainConfig{Seed: 1, Epochs: 10})
	if v.Threshold < 0.2 || v.Threshold > 0.81 {
		t.Fatalf("threshold %v out of sweep range", v.Threshold)
	}
}

func TestStrawmanVerifiers(t *testing.T) {
	q := "How many flights use aircraft Airbus A340-300?"
	good := premiseFor("for flights with aircraft Airbus A340-300 there are 2 flights in total")
	bad := premiseFor("the average distance is 4550")
	llm := FewShotLLM{}
	if llm.Score(q, good) <= llm.Score(q, bad) {
		t.Fatal("llm verifier must prefer the aligned premise")
	}
	pre := PrebuiltNLI{}
	if s := pre.Score(q, good); s < 0 || s > 1 {
		t.Fatalf("prebuilt score out of range: %v", s)
	}
	if llm.Name() == "" || pre.Name() == "" {
		t.Fatal("names required")
	}
}

func TestFuncVerifier(t *testing.T) {
	v := Func{Label: "always", Fn: func(string, Premise) bool { return true }}
	if ok, err := v.VerifyContext(context.Background(), "q", Premise{}); !ok || err != nil || v.Score("q", Premise{}) != 1 || v.Name() != "always" {
		t.Fatal("Func adapter broken")
	}
}

func TestMarshalTrainedRoundTrip(t *testing.T) {
	var pairs []Pair
	for i := 0; i < 30; i++ {
		pairs = append(pairs,
			Pair{Hypothesis: "count flights", Premise: premiseFor("there are 2 flights in total"), Label: 1},
			Pair{Hypothesis: "count flights", Premise: premiseFor("the name is Boeing"), Label: 0},
		)
	}
	v := Train(pairs, TrainConfig{Seed: 1, Epochs: 4})
	data, err := MarshalTrained(v)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := UnmarshalTrained(data)
	if err != nil {
		t.Fatal(err)
	}
	p := premiseFor("there are 2 flights in total")
	if v.Score("count flights", p) != v2.Score("count flights", p) {
		t.Fatal("round-tripped verifier diverges")
	}
	if _, err := UnmarshalTrained([]byte(`{"in":3,"hidden":1,"w1":[[1,1,1]],"b1":[0],"w2":[1],"b2":0}`)); err == nil {
		t.Fatal("width mismatch must be rejected")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(context.Background(), FewShotLLM{}, nil) != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}

func BenchmarkFeaturize(b *testing.B) {
	f := DefaultFeaturizer
	p := premiseFor("filtered by name equal to Airbus A340-300, there are 2 flights in total")
	for i := 0; i < b.N; i++ {
		f.Features("How many flights use aircraft Airbus A340-300?", p)
	}
}

var _ nn.Loss = nn.PaperFocal // the verifier's loss satisfies the contract
