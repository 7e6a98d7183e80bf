package cliconf

import (
	"flag"
	"strings"
	"testing"
	"time"

	"cyclesql/internal/experiments"
)

func parse(t *testing.T, bindAll bool, args ...string) Options {
	t.Helper()
	o := Default()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Bind(fs)
	if bindAll {
		o.BindBeam(fs)
		o.BindTraining(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestDefaultsMatchExperimentHarness(t *testing.T) {
	b := parse(t, true).Build()
	if b.Limits.MaxDev != experiments.DefaultLimits.MaxDev || b.Limits.MaxTrain != experiments.DefaultLimits.MaxTrain {
		t.Fatalf("default caps drifted: %+v", b.Limits)
	}
	if b.Limits.Parallelism != 1 || b.Limits.Workers != 1 || b.Limits.ExampleTimeout != 0 {
		t.Fatalf("default parallelism drifted: %+v", b.Limits)
	}
	if b.Limits.Resilience != nil {
		t.Fatal("no flags set must mean no resilience policy")
	}
	if b.Limits.Faults.Enabled() {
		t.Fatal("no flags set must mean no chaos")
	}
}

func TestFlagsFlowIntoLimits(t *testing.T) {
	o := parse(t, true,
		"-parallel", "4", "-workers", "8", "-timeout", "30s",
		"-beam", "5", "-dev", "120", "-train", "200")
	b := o.Build()
	if o.Beam != 5 {
		t.Fatalf("beam = %d", o.Beam)
	}
	if b.Limits.Parallelism != 4 || b.Limits.Workers != 8 || b.Limits.ExampleTimeout != 30*time.Second {
		t.Fatalf("limits = %+v", b.Limits)
	}
	if b.Limits.MaxDev != 120 || b.Limits.MaxTrain != 200 {
		t.Fatalf("caps = %+v", b.Limits)
	}
}

func TestResilienceArmsExactlyWhenConfigured(t *testing.T) {
	// Any of retries, breaker, or a chaos rate arms the policy.
	for _, args := range [][]string{
		{"-retries", "4"},
		{"-breaker", "3"},
		{"-fault-rate", "0.2"},
		{"-fault-hang", "0.05"},
		{"-fault-panic", "0.05"},
		{"-fault-slow", "0.1"},
	} {
		b := parse(t, false, args...).Build()
		if b.Limits.Resilience == nil {
			t.Fatalf("%v must arm the policy", args)
		}
	}
	b := parse(t, false, "-retries", "4", "-fault-seed", "7").Build()
	if got := b.Limits.Resilience.Retry.MaxAttempts; got != 5 {
		t.Fatalf("retries 4 must mean 5 attempts, got %d", got)
	}
	if b.Limits.Resilience.Retry.Seed != 7 || b.Limits.Faults.Seed != 7 {
		t.Fatal("fault seed must drive both jitter and chaos draws")
	}
	if b.Limits.Resilience.Collector == nil {
		t.Fatal("armed policy must carry a collector for the exit summary")
	}
}

func TestValidateRejectsBadCombos(t *testing.T) {
	// Each case is a flag combination a binary must refuse at startup;
	// frag anchors the error on the offending flag.
	cases := []struct {
		args []string
		frag string
	}{
		{[]string{"-beam", "0"}, "-beam"},
		{[]string{"-beam", "-3"}, "-beam"},
		{[]string{"-parallel", "-1"}, "-parallel"},
		{[]string{"-workers", "-2"}, "-workers"},
		{[]string{"-timeout", "-5s"}, "-timeout"},
		{[]string{"-dev", "-1"}, "-dev"},
		{[]string{"-train", "-10"}, "-train"},
		{[]string{"-retries", "-1"}, "-retries"},
		{[]string{"-breaker", "-1"}, "-breaker"},
		{[]string{"-fault-rate", "1.5"}, "-fault-rate"},
		{[]string{"-fault-rate", "-0.1"}, "-fault-rate"},
		{[]string{"-fault-hang", "2"}, "-fault-hang"},
		{[]string{"-fault-panic", "-1"}, "-fault-panic"},
		{[]string{"-fault-slow", "1.01"}, "-fault-slow"},
		{[]string{"-fault-latency", "-1ms"}, "-fault-latency"},
		{[]string{"-fault-slow", "0.5", "-fault-latency", "0"}, "-fault-slow"},
	}
	for _, c := range cases {
		o := parse(t, true, c.args...)
		err := o.Validate()
		if err == nil {
			t.Fatalf("%v must fail validation", c.args)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%v: error %q does not name %s", c.args, err, c.frag)
		}
	}
}

func TestValidateAcceptsWorkingCombos(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-parallel", "0", "-workers", "0"}, // zero means sequential, not invalid
		{"-dev", "0", "-train", "0"},        // zero caps mean the full split
		{"-fault-rate", "1", "-fault-hang", "0", "-retries", "0"},
		{"-fault-slow", "0.5", "-fault-latency", "1ms"},
		{"-retries", "6", "-breaker", "2", "-timeout", "45s", "-beam", "5"},
	} {
		if err := parse(t, true, args...).Validate(); err != nil {
			t.Fatalf("%v must validate: %v", args, err)
		}
	}
}

func TestResilienceArmingEdgeCases(t *testing.T) {
	// Zero-valued chaos rates must not arm the policy even when the
	// latency/seed knobs are explicitly set: only rates make chaos real.
	b := parse(t, false, "-fault-latency", "5ms", "-fault-seed", "42").Build()
	if b.Limits.Resilience != nil || b.Limits.Faults.Enabled() {
		t.Fatal("latency/seed without any rate must stay unarmed")
	}
	// Retries 0 with a breaker still arms (breaker-only operation), and
	// MaxAttempts 1 keeps single attempts.
	b = parse(t, false, "-breaker", "2").Build()
	if b.Limits.Resilience == nil {
		t.Fatal("breaker alone must arm the policy")
	}
	if got := b.Limits.Resilience.Retry.MaxAttempts; got != 1 {
		t.Fatalf("breaker-only policy must keep single attempts, got %d", got)
	}
	if got := b.Limits.Resilience.Breaker.Threshold; got != 2 {
		t.Fatalf("breaker threshold = %d", got)
	}
	// Chaos alone arms too: injected faults need the retry machinery to
	// be survivable, even at MaxAttempts 1 the collector observes them.
	b = parse(t, false, "-fault-rate", "0.3").Build()
	if b.Limits.Resilience == nil {
		t.Fatal("chaos alone must arm the policy")
	}
}

func TestChaosConfigRoundTrip(t *testing.T) {
	b := parse(t, false,
		"-fault-rate", "0.2", "-fault-hang", "0.05", "-fault-panic", "0.01",
		"-fault-slow", "0.1", "-fault-latency", "200us", "-fault-seed", "7").Build()
	f := b.Limits.Faults
	if f.ErrorRate != 0.2 || f.HangRate != 0.05 || f.PanicRate != 0.01 || f.LatencyRate != 0.1 {
		t.Fatalf("rates = %+v", f)
	}
	if f.Latency != 200*time.Microsecond || f.Seed != 7 {
		t.Fatalf("latency/seed = %+v", f)
	}
}
