package core

import (
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
)

// Option configures a Pipeline built by New. Options apply in call order,
// so a later option wins over an earlier one; every knob an Option sets
// may also be assigned on the struct before first use — the options exist
// so call sites state only what deviates from the defaults instead of
// threading a growing positional list.
type Option func(*Pipeline)

// New returns a pipeline with the paper's defaults — beam size 8, the
// data-grounded feedback, sequential candidate examination, no resilience
// policy, and warm per-database executor caches — customized by opts. A
// verifier must be supplied (WithVerifier) before the first Translate.
func New(model nl2sql.Model, opts ...Option) *Pipeline {
	p := &Pipeline{
		Model:    model,
		Feedback: NewDataGrounded(),
		BeamSize: 8,
		execs:    &executorCache{limit: maxCachedPerDB},
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// WithVerifier sets the NLI verifier the loop consults per candidate.
func WithVerifier(v nli.Verifier) Option {
	return func(p *Pipeline) { p.Verifier = v }
}

// WithBenchmark names the benchmark the simulated models translate
// against (it keys the model's example lookup and the translate stage's
// breaker identity).
func WithBenchmark(name string) Option {
	return func(p *Pipeline) { p.Benchmark = name }
}

// WithBeamSize sets the candidate beam size (values < 1 keep the paper's
// default of 8).
func WithBeamSize(k int) Option {
	return func(p *Pipeline) {
		if k > 0 {
			p.BeamSize = k
		}
	}
}

// WithParallelism bounds concurrent candidate verification within one
// Translate call; 0 or 1 is the paper's sequential loop (see
// Pipeline.Parallelism — results are identical either way).
func WithParallelism(n int) Option {
	return func(p *Pipeline) { p.Parallelism = n }
}

// WithResilience arms the retry/backoff and circuit-breaker policy around
// every loop stage (see Pipeline.Resilience); nil keeps single attempts.
func WithResilience(pol *resilience.Policy) Option {
	return func(p *Pipeline) { p.Resilience = pol }
}

// WithFeedback replaces the data-grounded feedback (the Fig 9 SQL2NL
// ablation plugs its back-translation in this way); nil restores the
// default.
func WithFeedback(fb Feedback) Option {
	return func(p *Pipeline) {
		if fb == nil {
			fb = NewDataGrounded()
		}
		p.Feedback = fb
	}
}
