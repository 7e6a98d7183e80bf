package datasets

import (
	"slices"
	"testing"
)

// TestVariantsDeterministic builds Spider-DK and Spider-Syn repeatedly in
// one process: every build must number, phrase and query its examples
// identically, since example IDs seed the simulated models.
func TestVariantsDeterministic(t *testing.T) {
	type triple struct{ id, question, sql string }
	examples := func(b *Benchmark) []triple {
		out := make([]triple, len(b.Dev))
		for i, ex := range b.Dev {
			out[i] = triple{ex.ID, ex.Question, ex.GoldSQL}
		}
		return out
	}
	for _, v := range []struct {
		name  string
		build func() *Benchmark
	}{
		{"spider-dk", buildDK},
		{"spider-syn", func() *Benchmark { return buildVariant("spider-syn", makeSyn) }},
	} {
		want := examples(v.build())
		if len(want) == 0 {
			t.Fatalf("%s: no examples", v.name)
		}
		for range 4 {
			if got := examples(v.build()); !slices.Equal(got, want) {
				t.Fatalf("%s: a rebuild in the same process differs", v.name)
			}
		}
	}
}

// TestReplaceWordsOrder pins the synonym order on a map where it matters:
// "city" becomes "big town" before "town" becomes "village".
func TestReplaceWordsOrder(t *testing.T) {
	syn := map[string]string{"town": "village", "city": "big town"}
	for range 20 {
		if got := replaceWords("Which city is a town?", syn); got != "Which big village is a village?" {
			t.Fatalf("replaceWords = %q", got)
		}
	}
}
