// Command benchmark regenerates the paper's tables and figures.
//
// Usage:
//
//	benchmark -exp table1            # one experiment
//	benchmark -exp all               # everything, in paper order
//	benchmark -exp table2 -dev 120   # bound the dev examples per benchmark
//	benchmark -exp table1 -workers 8 # sweep 8 dev examples concurrently
//	benchmark -list                  # list experiment ids
//
// The two parallelism knobs compose: -workers overlaps whole dev examples
// (the batch runner), -parallel overlaps the beam candidates within each
// example's feedback loop. Both leave every accuracy and iteration column
// bit-identical to the sequential sweep; only measured-wall-clock columns
// (Fig 8b's overhead) vary, as they do run to run regardless. -timeout
// bounds one example's wall clock; an example that exceeds it fails the
// run with a deadline error instead of hanging the regeneration. SIGINT
// (^C) or SIGTERM aborts the sweep cleanly mid-example (exit code 130).
//
// Resilience and chaos: -retries/-breaker wrap every pipeline stage with
// the resilience policy (retry/backoff for transient faults, per-stage
// circuit breakers, graceful degradation when the verifier's circuit is
// open), and the -fault-* flags inject deterministic faults around every
// model call. With retries on and no retry-budget exhaustion, a chaos run
// regenerates bit-identical tables:
//
//	benchmark -exp table2 -retries 4 -fault-rate 0.2 -fault-seed 7
//
// Whenever resilience or chaos is active, a one-line reliability summary
// (attempts, retries, breaker trips, degraded examples, recovered panics)
// is printed to stderr on exit — including on ^C.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cyclesql/internal/cliconf"
	"cyclesql/internal/experiments"
	"cyclesql/internal/resilience"
)

// reliability is the resilience policy the flags configured (nil when
// resilience and chaos are both off); exit prints its summary.
var reliability *resilience.Policy

// exit prints the reliability summary, then terminates with code — the
// explicit call keeps the summary on every path, since os.Exit skips
// deferred functions.
func exit(code int) {
	if reliability != nil {
		fmt.Fprintln(os.Stderr, "reliability: "+reliability.Stats().String())
	}
	os.Exit(code)
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	opts := cliconf.Default()
	opts.Bind(flag.CommandLine)
	opts.BindTraining(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs {
			fmt.Println(id)
		}
		return
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	built := opts.Build()
	lim := built.Limits
	reliability = built.Limits.Resilience

	ids := experiments.IDs
	if *exp != "all" {
		if _, ok := experiments.Registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}
	// SIGINT/SIGTERM cancel the context; the whole stack below — the batch
	// worker pool, the feedback loop, the SQL executor's inner loops —
	// honors it, so one ^C aborts a long regeneration cleanly mid-sweep
	// instead of leaving it to run out. A second signal kills the process
	// the default way (NotifyContext unregisters after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Registry[id](ctx, lim)
		if err != nil {
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "%s: interrupted after %s\n", id, time.Since(start).Round(time.Millisecond))
				exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			exit(1)
		}
		fmt.Println(table.String())
		fmt.Printf("[%s regenerated in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if reliability != nil {
		exit(0)
	}
}
