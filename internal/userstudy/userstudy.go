// Package userstudy simulates the paper's user study (§V-B2, Fig 10):
// twenty participants with prior SQL knowledge score the explanations of
// five world_1 queries on two dimensions — query-result interpretability
// and textual entailment with the NL question — plus an overall rating,
// on a 1-10 scale.
//
// Human raters are unavailable offline; the simulation substitutes twenty
// seeded rater profiles that score rubric features of an explanation
// (grounding in concrete data values, coverage of the query's filters,
// interpretation of the result value, brevity) with per-rater weights and
// noise. The comparative finding — data-grounded CycleSQL explanations
// are preferred over query-surface GPT-3.5-style explanations — emerges
// from the rubric, not from hard-coded scores; absolute values are
// synthetic (see ARCHITECTURE.md "Substitutions").
package userstudy

import (
	"math/rand"

	"cyclesql/internal/textproc"
)

// Dimension is one scored aspect of an explanation.
type Dimension string

// The paper's two scored dimensions plus the overall rating.
const (
	Interpretability Dimension = "query result interpretability"
	Entailment       Dimension = "textual entailment with NL"
	Overall          Dimension = "overall"
)

// Rating summarizes the 1-10 scores of all participants for one
// explanation on one dimension.
type Rating struct {
	Dimension Dimension
	Mean      float64
	Min, Max  float64
}

// Verdict buckets a mean score the way the paper summarizes results.
func (r Rating) Verdict() string {
	switch {
	case r.Mean >= 7:
		return "great"
	case r.Mean >= 3:
		return "neutral"
	default:
		return "bad"
	}
}

// Item is one explanation under evaluation.
type Item struct {
	Question    string
	Result      string // textual rendering of the to-explain result
	Explanation string
}

// rater is one simulated participant: preference weights over rubric
// features plus personal noise.
type rater struct {
	wGrounding, wCoverage, wResult, wBrevity float64
	noise                                    float64
	rng                                      *rand.Rand
}

// Participants is the paper's panel size.
const Participants = 20

func panel(seed int64) []rater {
	rng := rand.New(rand.NewSource(seed))
	out := make([]rater, Participants)
	for i := range out {
		out[i] = rater{
			wGrounding: 2.4 + rng.Float64()*1.2,
			wCoverage:  2.4 + rng.Float64()*1.2,
			wResult:    1.6 + rng.Float64()*0.8,
			wBrevity:   0.6 + rng.Float64()*0.8,
			noise:      0.5 + rng.Float64()*0.5,
			rng:        rand.New(rand.NewSource(seed + int64(i)*101)),
		}
	}
	return out
}

// rubric computes the feature scores (each in [0,1]) of an explanation.
func rubric(item Item, dim Dimension) (grounding, coverage, result, brevity float64) {
	expl := textproc.Tokenize(item.Explanation)
	q := textproc.ContentTokens(item.Question)
	resToks := textproc.Tokenize(item.Result)
	// Grounding: does the explanation cite concrete values (numbers or the
	// result tuple's values)?
	nums := textproc.Numbers(item.Explanation)
	grounding = clamp01(float64(len(nums))/3.0)*0.5 + 0.5*textproc.Recall(resToks, expl)
	// Coverage: how much of the question's content the explanation echoes.
	coverage = textproc.Recall(q, expl)
	// Result interpretation: the result value must be explained, not just
	// printed — approximated by the result tokens appearing amid prose.
	result = textproc.Recall(resToks, expl)
	// Brevity: raters discount walls of text.
	brevity = clamp01(2.0 - float64(len(expl))/60.0)
	if dim == Entailment {
		// The entailment dimension weighs question coverage double.
		coverage = clamp01(coverage * 1.2)
	}
	return grounding, coverage, result, brevity
}

// Score runs the panel over one item and dimension.
func Score(item Item, dim Dimension, seed int64) Rating {
	raters := panel(seed)
	r := Rating{Dimension: dim, Min: 10, Max: 1}
	total := 0.0
	for _, p := range raters {
		g, c, res, b := rubric(item, dim)
		raw := p.wGrounding*g + p.wCoverage*c + p.wResult*res + p.wBrevity*b
		// Map rubric mass (max ~8.4) onto 1..10 with personal noise.
		score := 1 + raw + p.rng.NormFloat64()*p.noise
		if score < 1 {
			score = 1
		}
		if score > 10 {
			score = 10
		}
		total += score
		if score < r.Min {
			r.Min = score
		}
		if score > r.Max {
			r.Max = score
		}
	}
	r.Mean = total / float64(Participants)
	return r
}

// Compare scores two competing explanations of the same item and reports
// how many of the panel prefer the first (paper: 14 of 20 preferred
// CycleSQL).
func Compare(a, b Item, seed int64) (preferA int) {
	raters := panel(seed)
	for i, p := range raters {
		ga, ca, ra, ba := rubric(a, Overall)
		gb, cb, rb, bb := rubric(b, Overall)
		sa := p.wGrounding*ga + p.wCoverage*ca + p.wResult*ra + p.wBrevity*ba + p.rng.NormFloat64()*p.noise
		sb := p.wGrounding*gb + p.wCoverage*cb + p.wResult*rb + p.wBrevity*bb + p.rng.NormFloat64()*p.noise
		_ = i
		if sa > sb {
			preferA++
		}
	}
	return preferA
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
