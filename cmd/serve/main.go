// Command serve runs the pipeline-as-a-service HTTP layer: every
// benchmark database becomes a tenant at /v1/{tenant}/translate, with
// liveness at /healthz and JSON counters at /metrics.
//
// Usage:
//
//	serve -addr :8080
//	serve -addr :8080 -max-inflight 16 -max-queue 64 -parallel 4
//	serve -verifier-latency 5ms        # simulate verifier inference cost
//
// Requests execute against copy-on-write snapshots of the tenant store
// (pinned in O(tables), refreshed only when the store's epoch moves), on
// warm per-tenant pipelines. Admission control bounds concurrency: past
// -max-inflight running and -max-queue waiting requests, the server
// sheds load with 429 and Retry-After instead of queueing unboundedly.
// The -timeout flag is the per-request budget (default 30s; a request's
// timeout_ms can only shorten it), and a client disconnect cancels its
// in-flight loop work.
//
// The shared cliconf flags (-parallel, -retries, -breaker, -fault-*,
// -dev, -train, -beam, ...) mean exactly what they mean on cmd/cyclesql
// and cmd/benchmark. At the default -train the server loads the frozen
// verifier; any other -train trains one at start. SIGINT or SIGTERM
// drains in-flight requests and exits 0; a second signal kills the
// process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cyclesql/internal/cliconf"
	"cyclesql/internal/datasets"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "resdsql-3b", "default translation model ("+strings.Join(nl2sql.ModelNames(), ", ")+"); requests may override per call")
	maxInflight := flag.Int("max-inflight", 8, "max concurrently executing translations")
	maxQueue := flag.Int("max-queue", 16, "max requests queued for an execution slot; beyond this the server sheds with 429")
	verifierLatency := flag.Duration("verifier-latency", 0, "simulated verifier inference latency per call (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
	opts := cliconf.Default()
	opts.Bind(flag.CommandLine)
	opts.BindBeam(flag.CommandLine)
	opts.BindTraining(flag.CommandLine)
	flag.Parse()

	if _, err := nl2sql.ByName(*model); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	built := opts.Build()

	fmt.Fprintln(os.Stderr, "preparing verifier...")
	var verifier nli.Verifier = experiments.Verifier(built.Limits)
	if *verifierLatency > 0 {
		verifier = nli.Latency{V: verifier, D: *verifierLatency}
	}

	bench := datasets.Spider()
	srv := serve.New(serve.Config{
		Bench:        bench,
		Verifier:     verifier,
		Limits:       built.Limits,
		DefaultModel: *model,
		Beam:         opts.Beam,
		MaxInflight:  *maxInflight,
		MaxQueue:     *maxQueue,
		Timeout:      opts.Timeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// First SIGINT/SIGTERM starts a bounded graceful drain; a second one
	// kills the process the default way (NotifyContext unregisters).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drained <- httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "serving %d tenants on %s\n", len(bench.Databases), *addr)
	err := httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := <-drained; err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	if pol := built.Limits.Resilience; pol != nil {
		fmt.Fprintln(os.Stderr, "reliability: "+pol.Stats().String())
	}
	fmt.Fprintln(os.Stderr, "shut down cleanly")
}
