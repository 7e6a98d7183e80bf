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
// end into them; and the features must repeat bit for bit. The seed
// corpus in testdata/fuzz/FuzzAnalyze runs with every go test.
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, hypothesis, explanation, sql, result string) {
		p := Premise{Explanation: explanation, SQL: sql, Result: result}
		whole := analyze(hypothesis, p)
		alone := analyze(hypothesis, Premise{Explanation: explanation})
		got, want := whole.words(whole.pExplSet), alone.words(alone.pSet)
		if !slices.Equal(got, want) {
			t.Errorf("explanation stems in the premise %v, on their own %v", got, want)
		}
		whole.release()
		alone.release()

		x := DefaultFeaturizer.Features(hypothesis, p)
		y := DefaultFeaturizer.Features(hypothesis, p)
		if !slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }) {
			t.Errorf("features differ between calls:\n%v\n%v", x, y)
		}
	})
}
