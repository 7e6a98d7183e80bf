package nli

import (
	"math"
	"slices"
	"testing"
)

// FuzzAnalyze runs the analysis over arbitrary pairs. It needs no oracle:
// the analysis must not panic; the explanation-only stems of a premise
// must equal the premise stems of its explanation alone, so the one walk
// over the premise never lets an idiom reach across the explanation's
// end into them; the features must repeat bit for bit; and they must not
// depend on what the lexicon has seen, so a fresh analysis and one that
// first analysed a second pair (the same strings in other roles, sharing
// tokens with the first) agree bit for bit. The seed corpus in
// testdata/fuzz/FuzzAnalyze runs with every go test.
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, hypothesis, explanation, sql, result string) {
		p := Premise{Explanation: explanation, SQL: sql, Result: result}
		whole := analyze(hypothesis, p)
		alone := analyze(hypothesis, Premise{Explanation: explanation})
		got, want := whole.words(inPExpl), alone.words(inP)
		if !slices.Equal(got, want) {
			t.Errorf("explanation stems in the premise %v, on their own %v", got, want)
		}
		whole.release()
		alone.release()

		x := DefaultFeaturizer.Features(hypothesis, p)
		y := DefaultFeaturizer.Features(hypothesis, p)
		if !bitEqual(x, y) {
			t.Errorf("features differ between calls:\n%v\n%v", x, y)
		}

		fresh, seasoned := new(analysis), new(analysis)
		fresh.analyze(hypothesis, p)
		seasoned.analyze(explanation, Premise{Explanation: hypothesis, SQL: result, Result: sql})
		seasoned.analyze(hypothesis, p)
		if x, y := features(fresh), features(seasoned); !bitEqual(x, y) {
			t.Errorf("features depend on the lexicon's history:\nfresh    %v\nseasoned %v", x, y)
		}
	})
}

// features returns the default features of an analyzed pair.
func features(a *analysis) []float64 {
	out := make([]float64, DefaultFeaturizer.Dim())
	DefaultFeaturizer.fill(out, a)
	return out
}

func bitEqual(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}
