package nli

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
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

// words is the test's string view of the set with bit in: the names of
// its IDs, sorted.
func (a *analysis) words(in uint8) []string {
	set := a.set(in)
	out := make([]string, len(set))
	for i, id := range set {
		out[i] = a.names[id]
	}
	slices.Sort(out)
	return out
}

func TestSQLLiteralTokens(t *testing.T) {
	for sql, want := range map[string][]string{
		"SELECT a FROM t WHERE x = 'Airbus A340-300' AND y = 'red'": {"300", "a340", "airbus", "red"},
		// A doubled quote is one quote: the name stays whole, as the
		// question "Which flights did O'Brien book?" tokenizes it.
		"SELECT a FROM t WHERE pilot = 'O''Brien'":                  {"obrien"},
		"SELECT a FROM t WHERE x = '' AND y = 'Rock''n''Roll' OR z": {"rocknroll"},
	} {
		a := analyze("q", Premise{SQL: sql})
		if got := a.words(inSQLVal); !slices.Equal(got, want) {
			t.Errorf("SQL literal stems of %q = %v want %v", sql, got, want)
		}
		a.release()
	}
}

func TestSelectClauseTokens(t *testing.T) {
	for sql, want := range map[string][]string{
		"SELECT count(*), name FROM t WHERE x = 1": {"count", "name"},
		// Upper-casing ɐ (2 bytes) gives Ɐ (3 bytes): the clause is cut
		// at offsets into the SQL itself, never into an upper-cased copy.
		"SELECT 'ɐɐɐɐɐɐɐɐɐɐ' FROM t": {"ɐɐɐɐɐɐɐɐɐɐ"},
		"SELECT 'ɐɐ', name FROM t":   {"name", "ɐɐ"},
	} {
		a := analyze("q", Premise{SQL: sql})
		if got := a.words(inSel); !slices.Equal(got, want) {
			t.Errorf("SELECT-clause stems of %q = %v want %v", sql, got, want)
		}
		a.release()
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
	v := Func{Label: "always", Fn: func(context.Context, string, Premise) bool { return true }}
	if ok, err := v.VerifyContext(context.Background(), "q", Premise{}); !ok || err != nil || v.Score("q", Premise{}) != 1 || v.Name() != "always" {
		t.Fatal("Func adapter broken")
	}
}

func TestMarshalTrainedRoundTrip(t *testing.T) {
	explanations := []string{
		"there are 2 flights in total",
		"the name is Boeing",
		"filtered by name equal to Airbus A340-300, there are 2 flights in total",
		"the name is Airbus A340-300, with distance 8430",
		"there are 5 aircraft in total",
		"the flight number is 99",
	}
	var pairs []Pair
	for i := 0; i < 30; i++ {
		pairs = append(pairs,
			Pair{Hypothesis: "count flights", Premise: premiseFor(explanations[0]), Label: 1},
			Pair{Hypothesis: "count flights", Premise: premiseFor(explanations[1]), Label: 0},
		)
	}
	v := Train(pairs, TrainConfig{Seed: 1, Epochs: 4})
	if v.Threshold == 0.5 {
		t.Fatal("the trained threshold must differ from 0.5 for the round trip to show it")
	}
	data, err := MarshalTrained(v)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := UnmarshalTrained(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v.Threshold) != math.Float64bits(v2.Threshold) {
		t.Fatalf("threshold %v came back as %v", v.Threshold, v2.Threshold)
	}
	ctx := context.Background()
	for _, q := range []string{"count flights", "How many flights use aircraft Airbus A340-300?", "Which aircraft is Boeing?"} {
		for _, expl := range explanations {
			p := premiseFor(expl)
			if s1, s2 := v.Score(q, p), v2.Score(q, p); math.Float64bits(s1) != math.Float64bits(s2) {
				t.Fatalf("score of %q / %q: %v came back as %v", q, expl, s1, s2)
			}
			ok1, err1 := v.VerifyContext(ctx, q, p)
			ok2, err2 := v2.VerifyContext(ctx, q, p)
			if ok1 != ok2 || err1 != nil || err2 != nil {
				t.Fatalf("verdict on %q / %q: %v (%v) came back as %v (%v)", q, expl, ok1, err1, ok2, err2)
			}
		}
	}
	if _, err := UnmarshalTrained([]byte(`{"threshold":0.5,"model":{"in":3,"hidden":1,"w1":[[1,1,1]],"b1":[0],"w2":[1],"b2":0}}`)); err == nil {
		t.Fatal("width mismatch must be rejected")
	}
	model, err := v.Model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTrained(model); err == nil {
		t.Fatal("a model without its threshold must be rejected")
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

// allocGatePair is the question and premise the allocation gate and
// BenchmarkScore run on, with a small verifier trained for them.
func allocGatePair() (*Trained, string, Premise) {
	var pairs []Pair
	for i := 0; i < 20; i++ {
		pairs = append(pairs,
			Pair{Hypothesis: "count flights", Premise: premiseFor("there are 2 flights in total"), Label: 1},
			Pair{Hypothesis: "count flights", Premise: premiseFor("the name is Boeing"), Label: 0},
		)
	}
	v := Train(pairs, TrainConfig{Seed: 1, Epochs: 2})
	q := "How many flights use aircraft Airbus A340-300 with at least 2.5 hours, or fewer than 10?"
	p := Premise{
		Explanation: "Filtered by name equal to Airbus A340-300, there are 2 flights in total; the cities are Chicago and Los Angeles",
		SQL:         "SELECT count(*), T1.origin FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300' AND T1.hours >= 2.5",
		Result:      "2 rows ; 2 | Chicago ; 2 | Los Angeles",
	}
	return v, q, p
}

// TestFeaturizeAllocGate holds the featurizer to its scratch discipline:
// a warm Featurizer.Features allocates only its result, and a warm
// Trained.Score (featurizer plus sparse forward pass) at most 4 times.
// testing.AllocsPerRun is deterministic, so the gate cannot flake.
func TestFeaturizeAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	v, q, p := allocGatePair()
	f := DefaultFeaturizer
	if n := testing.AllocsPerRun(100, func() { f.Features(q, p) }); n != 1 {
		t.Errorf("Featurizer.Features allocates %v times per call, want exactly 1 (its result)", n)
	}
	if n := testing.AllocsPerRun(100, func() { v.Score(q, p) }); n > 4 {
		t.Errorf("warm Trained.Score allocates %v times per call, want at most 4", n)
	}
}

func BenchmarkScore(b *testing.B) {
	v, q, p := allocGatePair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Score(q, p)
	}
}

// TestScoreAllocGate: a warm Trained.Score allocates nothing, since the
// pooled analysis keeps its lexicon, sets and forward-pass scratch.
func TestScoreAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	v, q, p := allocGatePair()
	if n := testing.AllocsPerRun(100, func() { v.Score(q, p) }); n != 0 {
		t.Errorf("warm Trained.Score allocates %v times per call, want 0", n)
	}
}

// distinctWords returns n distinct tokens, none a stopword, an idiom or
// a number, joined by spaces.
func distinctWords(prefix string, n int) string {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "%s%d ", prefix, i)
	}
	return b.String()
}

// TestLexiconGrowthAllocGate: a fresh analysis that learns 1,000 distinct
// tokens allocates only as its arenas, slices and maps double, not once
// per token: the lexicon copies each key into its own arena instead of
// allocating a string.
func TestLexiconGrowthAllocGate(t *testing.T) {
	const want = 110 // measured with Go 1.24
	h := distinctWords("w", 1000)
	n := testing.AllocsPerRun(10, func() {
		a := new(analysis)
		a.analyze(h, Premise{})
	})
	if n > want {
		t.Errorf("a fresh analysis of 1,000 distinct tokens allocates %v times, want at most %d", n, want)
	}
}

// TestLexiconReset feeds a lexicon more distinct tokens than its bound
// between two analyses of the same pairs: the reset must leave every
// feature bit-identical and classWords at IDs 0..10.
func TestLexiconReset(t *testing.T) {
	pairs := variedPairs(8)
	a := new(analysis)
	before := make([][]float64, len(pairs))
	for i, p := range pairs {
		a.analyze(p.Hypothesis, p.Premise)
		before[i] = features(a)
	}
	a.analyze(distinctWords("x", lexiconMax+1), Premise{})
	if len(a.tokens) <= lexiconMax {
		t.Fatalf("lexicon holds %d tokens, want more than %d", len(a.tokens), lexiconMax)
	}
	for i, p := range pairs {
		a.analyze(p.Hypothesis, p.Premise)
		if i == 0 && len(a.tokens) > lexiconMax {
			t.Fatalf("lexicon of %d tokens was not reset", len(a.tokens))
		}
		if got := features(a); !bitEqual(got, before[i]) {
			t.Errorf("features of pair %d after the reset:\n%v\nbefore:\n%v", i, got, before[i])
		}
	}
	for i, w := range classWords {
		if a.names[i] != w || a.ids[w] != uint32(i) {
			t.Errorf("after the reset ID %d names %q and %q has ID %d", i, a.names[i], w, a.ids[w])
		}
	}
}

// variedPairs returns n distinct synthetic pairs that share vocabulary
// the way a dev split's questions and explanations do.
func variedPairs(n int) []Pair {
	things := []string{"flights", "aircraft", "singers", "concerts", "stadiums", "students", "pets", "cities"}
	attrs := []string{"distance", "price", "age", "capacity", "weight", "salary", "population", "rating"}
	places := []string{"Chicago", "Los Angeles", "Boston", "Denver", "Paris", "Tokyo", "İstanbul", "Lima"}
	pairs := make([]Pair, n)
	for i := range pairs {
		thing, attr, place := things[i%8], attrs[i/8%8], places[(i*3)%8]
		pairs[i] = Pair{
			Hypothesis: fmt.Sprintf("How many %s have a %s of at least %d in %s?", thing, attr, 10*i, place),
			Premise: Premise{
				Explanation: fmt.Sprintf("Filtered by %s greater than %d and city equal to %s, there are %d %s in total", attr, 10*i, place, i%5, thing),
				SQL:         fmt.Sprintf("SELECT count(*) FROM %s WHERE %s >= %d AND city = '%s'", thing, attr, 10*i, place),
				Result:      fmt.Sprintf("1 rows ; %d", i%5),
			},
			Label: i % 2,
		}
	}
	return pairs
}

// BenchmarkScoreVaried scores 64 distinct pairs in turn, so the lexicon
// sees a realistic mix of tokens rather than one pair's.
func BenchmarkScoreVaried(b *testing.B) {
	v, _, _ := allocGatePair()
	pairs := variedPairs(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &pairs[i%len(pairs)]
		v.Score(p.Hypothesis, p.Premise)
	}
}

// TestScoreConcurrent scores distinct pairs from several goroutines at
// once through the pooled scratch, and requires every score and feature
// vector to match the sequential one bit for bit.
func TestScoreConcurrent(t *testing.T) {
	var pairs []Pair
	for i := 0; i < 16; i++ {
		pairs = append(pairs,
			Pair{Hypothesis: fmt.Sprintf("How many flights cost at least %d dollars?", i), Premise: premiseFor(fmt.Sprintf("there are %d flights in total", i)), Label: 1},
			Pair{Hypothesis: fmt.Sprintf("Which cities have %d.5 airports?", i), Premise: premiseFor("the largest distance is 8430 for İstanbul"), Label: 0},
		)
	}
	v := Train(pairs, TrainConfig{Seed: 1, Epochs: 3})
	want := make([]float64, len(pairs))
	wantX := make([][]float64, len(pairs))
	for i, p := range pairs {
		want[i] = v.Score(p.Hypothesis, p.Premise)
		wantX[i] = v.Feat.Features(p.Hypothesis, p.Premise)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i := range pairs {
					k := (i + g*3) % len(pairs)
					p := pairs[k]
					if got := v.Score(p.Hypothesis, p.Premise); math.Float64bits(got) != math.Float64bits(want[k]) {
						t.Errorf("concurrent Score of pair %d = %v, sequential %v", k, got, want[k])
						return
					}
					if got := v.Feat.Features(p.Hypothesis, p.Premise); !slices.Equal(got, wantX[k]) {
						t.Errorf("concurrent Features of pair %d diverge", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
