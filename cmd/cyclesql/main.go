// Command cyclesql translates natural-language questions end-to-end with
// the CycleSQL feedback loop. In its default single-question mode it
// prints the full loop trace: every candidate, its data-grounded
// explanation, and the verifier's verdict. With -all it sweeps every
// benchmark question for the database through the batched experiment
// runner and prints one verdict line per question plus a summary.
//
// Usage:
//
//	cyclesql -db world_1 -model resdsql-3b -q "How many countries are in Africa?"
//	cyclesql -db flight_2 -q "Show all flight numbers with aircraft Airbus A340-300."
//	cyclesql -db world_1 -all -workers 4 -parallel 4
//
// The two parallelism knobs compose: -workers (with -all) overlaps whole
// questions, -parallel overlaps the beam candidates inside each question's
// feedback loop; per-question results are identical at any setting.
// -timeout bounds one question's wall clock. SIGINT (^C) or SIGTERM
// aborts the loop cleanly mid-query (exit code 130).
//
// Resilience and chaos: -retries/-breaker wrap every loop stage with the
// resilience policy (retry/backoff for transient faults, per-stage
// circuit breakers, graceful degradation when the verifier's circuit is
// open), and the -fault-* flags inject deterministic faults around every
// model call to exercise it:
//
//	cyclesql -db world_1 -all -retries 4 -fault-rate 0.2 -fault-seed 7
//
// Whenever resilience or chaos is active, a one-line reliability summary
// (attempts, retries, breaker trips, degraded questions, recovered
// panics) is printed to stderr on exit — including on ^C.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cyclesql/internal/cliconf"
	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
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
	dbName := flag.String("db", "world_1", "database name inside the Spider benchmark")
	modelName := flag.String("model", "resdsql-3b", "simulated translation model ("+strings.Join(nl2sql.ModelNames(), ", ")+")")
	question := flag.String("q", "", "natural-language question (must be a benchmark question so the simulated model can translate it)")
	all := flag.Bool("all", false, "translate every benchmark question for -db instead of a single -q")
	opts := cliconf.Default()
	opts.Bind(flag.CommandLine)
	opts.BindBeam(flag.CommandLine)
	flag.Parse()

	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	built := opts.Build()
	reliability = built.Limits.Resilience

	bench := datasets.Spider()

	// Resolve the question (or, for -all, the database) before loading
	// the verifier, so a typo'd -q or -db exits with usage help at once.
	var found *datasets.Example
	if !*all {
		// The simulated models translate benchmark examples; find the one
		// matching the question (or list available questions).
		for i := range bench.Dev {
			ex := &bench.Dev[i]
			if ex.DBName == *dbName && (strings.EqualFold(ex.Question, *question) || *question == "") {
				found = ex
				break
			}
		}
		if found == nil {
			fmt.Fprintf(os.Stderr, "no benchmark question matches; questions for %s:\n", *dbName)
			for _, ex := range bench.Dev {
				if ex.DBName == *dbName {
					fmt.Fprintf(os.Stderr, "  %s\n", ex.Question)
				}
			}
			os.Exit(2)
		}
	} else {
		known := false
		for _, ex := range bench.Dev {
			if ex.DBName == *dbName {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "no benchmark questions for database %q\n", *dbName)
			os.Exit(2)
		}
	}

	verifier := experiments.Verifier(experiments.DefaultLimits)
	// Limits.Pipeline wraps the three model-call surfaces with the fault
	// injector (a no-op when no -fault-* flag is set) and applies the
	// parallelism knob and resilience policy; the raw verifier stays in
	// scope for the diagnostic score display below, which reads fault-free.
	pipeline := built.Limits.Pipeline(nl2sql.MustByName(*modelName), verifier, bench.Name, nil)
	pipeline.BeamSize = opts.Beam

	// SIGINT/SIGTERM cancel the context the whole loop below honors, so ^C
	// aborts a translation (or a full -all sweep) cleanly mid-query.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *all {
		sweep(ctx, pipeline, bench, *dbName, *modelName, opts.Workers, opts.Timeout)
		exit(0)
	}
	db := bench.DB(found.DBName)

	fmt.Printf("Question: %s\nDatabase: %s   Model: %s\n\n", found.Question, found.DBName, *modelName)
	loopCtx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		loopCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	res, err := pipeline.Translate(loopCtx, *found, db)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			exit(130)
		}
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	for i, cand := range res.Candidates {
		if i >= res.Iterations {
			fmt.Printf("candidate %d (not examined): %s\n", i+1, cand.SQL)
			continue
		}
		verdict := "rejected"
		if res.Verified && i == res.Iterations-1 {
			verdict = "VALIDATED"
		}
		fmt.Printf("candidate %d [%s]: %s\n", i+1, verdict, cand.SQL)
		if i < len(res.Premises) && res.Premises[i].Explanation != "" {
			fmt.Printf("  explanation: %s\n", res.Premises[i].Explanation)
			fmt.Printf("  verifier score: %.3f\n", verifier.Score(found.Question, res.Premises[i]))
		}
		if i < len(res.Errors) && !res.Errors[i].IsZero() {
			fmt.Printf("  feedback failed: %s\n", res.Errors[i].Error())
		}
	}
	status := fmt.Sprintf("verified=%v", res.Verified)
	if res.Degraded {
		status += " degraded=true (verifier circuit open; best-scored candidate returned unverified)"
	}
	if res.Retries > 0 {
		status += fmt.Sprintf(" retries=%d", res.Retries)
	}
	fmt.Printf("\nFinal translation (%d iterations, %s):\n  %s\n", res.Iterations, status, res.FinalSQL)
	correct := eval.EXContext(ctx, db, res.Final, found.Gold)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted")
		exit(130)
	}
	fmt.Printf("Execution-correct vs gold: %v\n", correct)
	fmt.Printf("Feedback-loop overhead: %s\n", res.Overhead.Round(100))
	exit(0)
}

// sweep runs the feedback loop over every dev question of one database on
// the batched experiment runner, printing per-question verdicts in
// benchmark order regardless of completion order. A cancelled ctx (^C)
// fails the remaining questions with the context error and still prints
// the summary for whatever completed.
func sweep(ctx context.Context, pipeline *core.Pipeline, bench *datasets.Benchmark, dbName, modelName string, workers int, timeout time.Duration) {
	var qs []datasets.Example
	for _, ex := range bench.Dev {
		if ex.DBName == dbName {
			qs = append(qs, ex)
		}
	}
	if len(qs) == 0 {
		fmt.Fprintf(os.Stderr, "no benchmark questions for database %q\n", dbName)
		exit(2)
	}
	fmt.Printf("Database: %s   Model: %s   Questions: %d   Workers: %d\n\n", dbName, modelName, len(qs), workers)
	results := make([]*core.Result, len(qs))
	start := time.Now()
	batch := experiments.Batch{Workers: workers, Timeout: timeout}
	errs := batch.Run(ctx, len(qs), func(ctx context.Context, i int) error {
		res, err := pipeline.Translate(ctx, qs[i], bench.DB(qs[i].DBName))
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	elapsed := time.Since(start)
	verified, correct, failed, degraded := 0, 0, 0, 0
	for i, ex := range qs {
		if errs[i] != nil {
			failed++
			fmt.Printf("%3d FAILED    %s\n    %v\n", i+1, ex.Question, errs[i])
			continue
		}
		res := results[i]
		// A false scored under a cancelled ctx is not a measurement.
		exCorrect := "interrupted"
		if ok := eval.EXContext(ctx, bench.DB(ex.DBName), res.Final, ex.Gold); ctx.Err() == nil {
			exCorrect = strconv.FormatBool(ok)
			if ok {
				correct++
			}
		}
		verdict := "rejected "
		if res.Verified {
			verdict = "VALIDATED"
			verified++
		}
		if res.Degraded {
			verdict = "DEGRADED "
			degraded++
		}
		fmt.Printf("%3d %s %s\n    iterations=%d execution-correct=%s  %s\n",
			i+1, verdict, ex.Question, res.Iterations, exCorrect, res.FinalSQL)
	}
	fmt.Printf("\n%d/%d verified, %d/%d execution-correct, %d degraded, %d failed in %s\n",
		verified, len(qs), correct, len(qs), degraded, failed, elapsed.Round(time.Millisecond))
}
