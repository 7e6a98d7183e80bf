package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"
)

// reconcileTolerance is how far a translate span may differ from the sum
// of its children and its self time before the trace counts as broken.
const reconcileTolerance = 0.01

// runWorkload prepares one workload, runs its untraced timed phase and,
// when cfg.traced, its traced phase, and reports every metric.
func runWorkload(ctx context.Context, b *base, w workload, cfg config) (*report, error) {
	e, err := prepare(ctx, b, w)
	if err != nil {
		return nil, err
	}
	r := &report{Workload: w.name, Correct: true}
	r.note("seed %d seconds %g gomaxprocs %d digest %s", cfg.seed, cfg.seconds.Seconds(), runtime.GOMAXPROCS(0), wantDigests[w.name])
	r.e2e("setup_s", e.setup.Seconds(), "s")

	var t timed
	if w.serve {
		t, _ = runServe(ctx, e, cfg.seed, "nominal", nominalRPS, cfg.untraced)
	} else {
		t = runLoop(ctx, e, cfg.seed, cfg.untraced)
	}
	heap := heapMB()
	completed := len(t.latencies)
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.mismatched == 0
	lat := sortedCopy(t.latencies)
	untracedRate := ratio(float64(completed), t.elapsed.Seconds())
	r.e2e("cpu_ms_per_request", median(t.cpuMS), "ms")
	r.e2e("ex_accuracy", t.exAccuracy(e), "ratio")
	r.e2e("heap_mb", heap, "MB")
	r.extra("throughput_rps", untracedRate, "1/s")
	r.extra("latency_p50_ms", percentile(lat, 50), "ms")
	r.extra("latency_p99_ms", percentile(lat, 99), "ms")
	r.extra("fail_share", ratio(float64(t.failed), float64(t.attempted)), "ratio")
	r.note("latency over %d completions: p99 has %d beyond it; highest supported percentile p%g", completed, beyond(completed, 99), highestPercentile(completed))
	if t.mismatched > 0 {
		r.note("%d answers differed from the reference", t.mismatched)
	}

	if w.ladder && cfg.ladder {
		steps, maxRate := runLadder(ctx, e, cfg.seed)
		for _, s := range steps {
			r.note("ladder %g rps: %d/%d answered, p%g %.2f ms, fits %t", s.rate, s.ok, s.offered, s.pct, s.tailMS, s.fit)
		}
		r.extra("max_rate_rps", maxRate, "1/s")
	}
	if !cfg.traced {
		return r, nil
	}
	if err := tracedPhase(ctx, b, e, cfg, r, untracedRate); err != nil {
		return nil, err
	}
	return r, nil
}

// tracedPhase measures the per-layer metrics: a traced loop pass over the
// workload's data (all workloads) and the serve tier under tracing (serve
// workloads), each about a quarter of -seconds, then the per-layer replay.
func tracedPhase(ctx context.Context, b *base, e *env, cfg config, r *report, untracedRate float64) error {
	p := e.pipeline
	if e.w.serve {
		// The server's pipelines run candidates in parallel, where spans
		// overlap; the traced loop pass uses a sequential pipeline on the
		// same beams and verifier, warmed by one untraced pass.
		p = loopLimits().Pipeline(e.beams, e.verifier, b.bench.Name, nil)
		if _, err := translateAll(ctx, p, e.dev, e.dbs); err != nil {
			return err
		}
	}
	pt, err := tracedLoop(ctx, e, p, cfg.seed, cfg.seconds/4)
	if err != nil {
		return err
	}
	st := analyse(pt.spans)
	spans := pt.spans
	tracedRate := ratio(float64(pt.translates), pt.elapsed.Seconds())

	var sv serveTrace
	if e.w.serve {
		if sv, err = tracedServe(ctx, e, cfg.seed, cfg.seconds/4); err != nil {
			return err
		}
		spans = append(spans, sv.spans...)
		tracedRate = sv.rate
	} else {
		sv = loopRequestView(pt)
	}
	if n := runtime.NumGoroutine(); n != 1 {
		r.note("warning: %d goroutines running during the replay; allocation counts may not repeat", n)
	}
	ro := replayLayers(ctx, e, b.verifier)

	var overhead, iters []float64
	verified := 0
	for _, res := range pt.results {
		overhead = append(overhead, us(res.Overhead))
		iters = append(iters, float64(res.Iterations))
		if res.Verified {
			verified++
		}
	}
	passes := ratio(float64(pt.translates), float64(len(e.dev)))
	inSitu := ratio(sum(st.loopUS), passes)

	r.layer("core.overhead_us", median(overhead), "us")
	r.layer("core.self_us", median(st.selfUS), "us")
	r.layer("core.iterations", mean(iters), "count")
	r.layer("core.useful_ratio", ratio(float64(verified), sum(iters)), "ratio")
	r.layer("core.allocs", float64(ro.translate.allocs), "count")
	r.layer("nl2sql.beam_us", median(st.beamUS), "us")
	r.layer("sqlparse.parse_ns", float64(ro.parse.perCall().Nanoseconds()), "ns")
	r.layer("sqlparse.allocs", float64(ro.parse.allocs), "count")
	r.layer("sqlnorm.cachekey_ns", float64(ro.cacheKey.perCall().Nanoseconds()), "ns")
	r.layer("sqlnorm.allocs", float64(ro.cacheKey.allocs), "count")
	r.layer("sqleval.exec_us", us(ro.warm.perCall()), "us")
	r.layer("sqleval.compile_us", us(ro.cold.perCall()-ro.warm.perCall()), "us")
	r.layer("sqleval.rows_out", ro.rowsOut, "rows")
	r.layer("sqleval.fail_share", ratio(float64(ro.failed), float64(ro.candidates)), "ratio")
	r.layer("sqleval.allocs", float64(ro.warm.allocs), "count")
	r.layer("provenance.track_us", us(ro.track.perCall()), "us")
	r.layer("provenance.allocs", float64(ro.track.allocs), "count")
	r.layer("explain.premise_us", median(st.premiseUS), "us")
	r.layer("explain.compose_us", us(ro.compose.perCall()), "us")
	r.layer("explain.allocs", float64(ro.compose.allocs), "count")
	r.layer("nli.verify_us", median(st.verifyUS), "us")
	r.layer("nli.verify_calls", ratio(float64(len(st.verifyUS)), float64(st.translates)), "count")
	r.layer("nli.allocs", float64(ro.verify.allocs), "count")
	r.layer("storage.mutate_us", ro.mutateUS, "us")
	r.layer("storage.snapshot_us", ro.snapshotUS, "us")
	r.layer("storage.rows", float64(ro.rows), "rows")
	r.layer("serve.loop_ms_p50", sv.loopP50, "ms")
	r.layer("serve.loop_ms_p99", sv.loopP99, "ms")
	r.layer("serve.outside_loop_ms_p50", sv.outsideP50, "ms")
	r.layer("serve.outside_loop_ms_p99", sv.outsideP99, "ms")
	r.layer("serve.queue_depth_p99", sv.queueP99, "count")
	r.layer("serve.inflight_mean", sv.inflightMean, "count")
	r.layer("serve.snapshot_refreshes", sv.refreshes, "count")
	r.layer("serve.pipeline_misses", sv.pipelineMisses, "count")
	r.layer("serve.shed", sv.shed, "count")
	r.layer("serve.retries", sv.retries, "count")
	r.layer("serve.gen_lag_ms_p99", sv.lagP99, "ms")
	r.layer("trace.overhead_share", 1-ratio(tracedRate, untracedRate), "ratio")
	r.layer("trace.unattributed_share", 1-ratio(us(ro.covered()), inSitu), "ratio")
	r.layer("trace.reconcile_err", st.reconcileErr, "ratio")
	r.note("traced phase: %d translates, %d spans; replay: %d candidates, %d executed", pt.translates, len(spans), ro.candidates, ro.candidates-ro.failed)

	if st.reconcileErr > reconcileTolerance {
		r.Correct = false
		r.note("translate spans do not reconcile with their children: error %.4f > %.2f", st.reconcileErr, reconcileTolerance)
	}
	if sv.mismatched > 0 {
		r.Correct = false
		r.note("%d traced serve answers differed from the reference", sv.mismatched)
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", e.w.name, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// serveTrace is the serve tier's per-layer view under tracing: how each
// request's latency splits into the loop and everything around it, and
// what the server's counters saw.
type serveTrace struct {
	rate                                     float64
	loopP50, loopP99, outsideP50, outsideP99 float64
	queueP99, inflightMean                   float64
	refreshes, pipelineMisses, shed, retries float64
	lagP99                                   float64
	mismatched                               int
	spans                                    []span
}

// tracedServe runs the nominal load for dur with the server's verifier
// seam traced and /metrics sampled every 100 ms.
func tracedServe(ctx context.Context, e *env, seed int64, dur time.Duration) (serveTrace, error) {
	c := newClient(e.server.Handler(), e.dev)
	before, err := c.metrics(ctx)
	if err != nil {
		return serveTrace{}, fmt.Errorf("read /metrics: %w", err)
	}
	var queued, inflight []float64
	stop := every(100*time.Millisecond, func() {
		if v, err := c.metrics(ctx); err == nil {
			queued = append(queued, float64(v.Queued))
			inflight = append(inflight, float64(v.Inflight))
		}
	})
	e.spans.start()
	t, samples := runServe(ctx, e, seed, "traced", nominalRPS, dur)
	spans := e.spans.stop()
	stop()
	after, err := c.metrics(ctx)
	if err != nil {
		return serveTrace{}, fmt.Errorf("read /metrics: %w", err)
	}
	var loop, outside, lag []float64
	for _, s := range samples {
		lag = append(lag, ms(s.lag))
		if s.rep.status == http.StatusOK {
			o := time.Duration(s.rep.resp.OverheadMicros) * time.Microsecond
			loop = append(loop, ms(o))
			outside = append(outside, ms(s.latency-o))
		}
	}
	loop, outside, lag, queued = sortedCopy(loop), sortedCopy(outside), sortedCopy(lag), sortedCopy(queued)
	return serveTrace{
		rate:           ratio(float64(len(t.latencies)), t.elapsed.Seconds()),
		loopP50:        percentile(loop, 50),
		loopP99:        percentile(loop, 99),
		outsideP50:     percentile(outside, 50),
		outsideP99:     percentile(outside, 99),
		queueP99:       percentile(queued, 99),
		inflightMean:   mean(inflight),
		refreshes:      float64(after.Snapshots.Refreshes - before.Snapshots.Refreshes),
		pipelineMisses: float64(after.Pipelines.Misses - before.Pipelines.Misses),
		shed:           float64(after.Requests.Shed - before.Requests.Shed),
		retries:        float64(after.Resilience.Retries - before.Resilience.Retries),
		lagP99:         percentile(lag, 99),
		mismatched:     t.mismatched,
		spans:          spans,
	}, nil
}

// loopRequestView splits the traced loop pass's translates the way the
// serve tier splits requests: the loop's own Result.Overhead, the rest of
// the call (the beam and the loop's bookkeeping), and how long the client
// took to send the next request. A closed loop holds one request in flight
// and queues none, and it has no server counters.
func loopRequestView(pt passTrace) serveTrace {
	var loop, outside, gaps []float64
	for i, res := range pt.results {
		loop = append(loop, ms(res.Overhead))
		outside = append(outside, ms(pt.took[i]-res.Overhead))
		gaps = append(gaps, ms(pt.gaps[i]))
	}
	loop, outside, gaps = sortedCopy(loop), sortedCopy(outside), sortedCopy(gaps)
	return serveTrace{
		loopP50:      percentile(loop, 50),
		loopP99:      percentile(loop, 99),
		outsideP50:   percentile(outside, 50),
		outsideP99:   percentile(outside, 99),
		inflightMean: 1,
		lagP99:       percentile(gaps, 99),
	}
}
