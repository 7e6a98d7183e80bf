// Package cliconf is the one canonical options surface for every binary
// that drives the CycleSQL loop — cmd/cyclesql, cmd/benchmark and
// cmd/serve. Before it existed, each CLI hand-rolled the same ~16 flag
// definitions and hand-assembled experiments.Limits, resilience.Policy
// and faultinject.Config from them, and the three surfaces drifted.
// Now a CLI declares which flag groups it wants (Bind, BindBeam,
// BindTraining), parses, and calls Build() once:
//
//	opts := cliconf.Default()
//	opts.Bind(flag.CommandLine)
//	opts.BindBeam(flag.CommandLine)
//	flag.Parse()
//	built := opts.Build()
//	// built.Limits -> experiments.Limits (parallelism, workers,
//	//                 timeouts, resilience, faults, dev/train caps);
//	//                 built.Limits.Resilience is nil when both
//	//                 resilience and chaos are off (print its Stats()
//	//                 on exit when non-nil)
//
// The flag names, defaults and help strings are exactly the ones the
// CLIs shipped with, so existing invocations keep working unchanged.
package cliconf

import (
	"flag"
	"fmt"
	"time"

	"cyclesql/internal/experiments"
	"cyclesql/internal/faultinject"
	"cyclesql/internal/resilience"
)

// Options is the full knob surface shared by the CLIs and the server.
// Zero values are meaningful (sequential, no timeouts, no resilience, no
// chaos); Default() fills the experiment caps from
// experiments.DefaultLimits.
type Options struct {
	// Beam is the candidate beam size (BindBeam).
	Beam int
	// Parallel bounds concurrent candidate verifications inside one
	// feedback loop; Workers bounds concurrent examples in a sweep (and,
	// on the server, has no meaning — admission control bounds requests).
	Parallel int
	Workers  int
	// Timeout is the per-question/per-example wall-clock budget (0 = none).
	Timeout time.Duration
	// Dev and Train cap the benchmark splits (BindTraining; 0 = all).
	Dev   int
	Train int
	// Retries and Breaker arm the resilience policy: transient-fault
	// retries per loop stage, and the circuit-breaker threshold in
	// consecutive per-stage infrastructure failures (0 disables each).
	Retries int
	Breaker int
	// Fault* configure deterministic chaos injection around every model
	// call (all zero = no injection, no wrappers).
	FaultRate    float64
	FaultHang    float64
	FaultPanic   float64
	FaultSlow    float64
	FaultLatency time.Duration
	FaultSeed    int64
}

// Default returns the options pre-filled with the experiment harness
// defaults (dev/train caps from experiments.DefaultLimits, 2ms chaos
// latency, seed 1) — the values the CLIs have always defaulted to.
func Default() Options {
	return Options{
		Beam:         8,
		Parallel:     1,
		Workers:      1,
		Dev:          experiments.DefaultLimits.MaxDev,
		Train:        experiments.DefaultLimits.MaxTrain,
		FaultLatency: 2 * time.Millisecond,
		FaultSeed:    1,
	}
}

// Bind registers the shared flag set — parallelism, workers, timeout,
// resilience and chaos — on fs, storing parsed values into o. Every
// CycleSQL binary calls this; BindBeam and BindTraining add the groups
// that only some binaries expose.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.IntVar(&o.Parallel, "parallel", o.Parallel, "concurrent candidate verifications per feedback loop (1 = the paper's sequential loop; results are identical either way)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "concurrent examples per sweep (1 = sequential; per-example results are identical either way)")
	fs.DurationVar(&o.Timeout, "timeout", o.Timeout, "per-example wall-clock budget (0 = none), e.g. 30s")
	fs.IntVar(&o.Retries, "retries", o.Retries, "transient-fault retries per loop stage (0 = single attempts)")
	fs.IntVar(&o.Breaker, "breaker", o.Breaker, "circuit-breaker threshold in consecutive per-stage infrastructure failures (0 = no breaker)")
	fs.Float64Var(&o.FaultRate, "fault-rate", o.FaultRate, "chaos: probability a model call returns a transient error")
	fs.Float64Var(&o.FaultHang, "fault-hang", o.FaultHang, "chaos: probability a model call hangs (resolves as a transient timeout)")
	fs.Float64Var(&o.FaultPanic, "fault-panic", o.FaultPanic, "chaos: probability a model call panics (recovered by the loop)")
	fs.Float64Var(&o.FaultSlow, "fault-slow", o.FaultSlow, "chaos: probability a model call is slowed by -fault-latency")
	fs.DurationVar(&o.FaultLatency, "fault-latency", o.FaultLatency, "chaos: added latency per -fault-slow hit")
	fs.Int64Var(&o.FaultSeed, "fault-seed", o.FaultSeed, "chaos: seed for the deterministic fault and backoff-jitter draws")
}

// BindBeam registers the candidate beam-size flag (cmd/cyclesql and
// cmd/serve; cmd/benchmark fixes beam per model like the paper does).
func (o *Options) BindBeam(fs *flag.FlagSet) {
	fs.IntVar(&o.Beam, "beam", o.Beam, "candidate beam size")
}

// BindTraining registers the benchmark-split caps (cmd/benchmark and
// cmd/serve; 0 = the full split).
func (o *Options) BindTraining(fs *flag.FlagSet) {
	fs.IntVar(&o.Dev, "dev", o.Dev, "max dev examples per benchmark (0 = all)")
	fs.IntVar(&o.Train, "train", o.Train, "max train examples for verifier training (0 = all; the default loads the frozen verifier)")
}

// Validate rejects option combinations no binary can run: negative
// counts and budgets, chaos probabilities outside [0,1], and slow-call
// injection with no latency to inject. Binaries call it right after
// flag.Parse so a bad invocation exits with usage help instead of
// producing a sweep that silently does something else.
func (o Options) Validate() error {
	if o.Beam < 1 {
		return fmt.Errorf("cliconf: -beam must be >= 1, got %d", o.Beam)
	}
	if o.Parallel < 0 || o.Workers < 0 {
		return fmt.Errorf("cliconf: -parallel and -workers must be >= 0, got %d and %d", o.Parallel, o.Workers)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("cliconf: -timeout must be >= 0, got %v", o.Timeout)
	}
	if o.Dev < 0 || o.Train < 0 {
		return fmt.Errorf("cliconf: -dev and -train must be >= 0 (0 = all), got %d and %d", o.Dev, o.Train)
	}
	if o.Retries < 0 {
		return fmt.Errorf("cliconf: -retries must be >= 0, got %d", o.Retries)
	}
	if o.Breaker < 0 {
		return fmt.Errorf("cliconf: -breaker must be >= 0, got %d", o.Breaker)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"-fault-rate", o.FaultRate},
		{"-fault-hang", o.FaultHang},
		{"-fault-panic", o.FaultPanic},
		{"-fault-slow", o.FaultSlow},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("cliconf: %s is a probability, must be in [0,1], got %g", r.name, r.v)
		}
	}
	if o.FaultLatency < 0 {
		return fmt.Errorf("cliconf: -fault-latency must be >= 0, got %v", o.FaultLatency)
	}
	if o.FaultSlow > 0 && o.FaultLatency == 0 {
		return fmt.Errorf("cliconf: -fault-slow %g with -fault-latency 0 injects nothing; set a latency or drop -fault-slow", o.FaultSlow)
	}
	return nil
}

// Built is the assembled runtime configuration: everything a binary needs
// to construct pipelines, sweeps and servers from one Options value.
type Built struct {
	// Limits carries the parallelism/timeout/cap knobs plus the chaos
	// configuration (Faults) and the armed resilience policy
	// (Resilience, nil when retries, breakers and chaos are all off;
	// binaries print its Stats() as their exit reliability summary),
	// ready for the experiment drivers and for Limits.Pipeline.
	Limits experiments.Limits
}

// Build assembles the canonical runtime configuration from the parsed
// options. The resilience policy is armed exactly when retries, a breaker
// threshold, or any chaos rate is configured — the rule both CLIs
// previously duplicated.
func (o Options) Build() Built {
	lim := experiments.DefaultLimits
	lim.MaxDev = o.Dev
	lim.MaxTrain = o.Train
	lim.Parallelism = o.Parallel
	lim.Workers = o.Workers
	lim.ExampleTimeout = o.Timeout
	lim.Faults = faultinject.Config{
		Seed:      o.FaultSeed,
		ErrorRate: o.FaultRate, HangRate: o.FaultHang,
		PanicRate: o.FaultPanic, LatencyRate: o.FaultSlow, Latency: o.FaultLatency,
	}
	if o.Retries > 0 || o.Breaker > 0 || lim.Faults.Enabled() {
		lim.Resilience = &resilience.Policy{
			Retry:     resilience.Retry{MaxAttempts: o.Retries + 1, Seed: o.FaultSeed},
			Breaker:   resilience.BreakerConfig{Threshold: o.Breaker},
			Collector: &resilience.Collector{},
		}
	}
	return Built{Limits: lim}
}
