package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"cyclesql/internal/sqltypes"
)

const (
	// nominalRPS is the serve workloads' offered load for the end-to-end
	// metrics: about a quarter of what a 2-core box serves, so a shared
	// host that slows to a third of its speed lengthens queues instead of
	// shedding requests.
	nominalRPS = 100
	// writesPerSecond is serve-writes' identity-Mutate rate.
	writesPerSecond = 20
	// ladderStep is the least time serve-open holds each rate of its
	// ladder; schedule rounds it up to whole cycles of the dev set.
	ladderStep = 500 * time.Millisecond
	// latencyLimitMS is the tail-latency limit max_rate_rps is judged by.
	latencyLimitMS = 50
)

// ladderRates are the offered loads serve-open steps through to find the
// highest rate that meets the latency limit.
var ladderRates = []float64{200, 300, 400, 500, 600, 700, 800}

// timed is the outcome of an untraced timed phase.
type timed struct {
	attempted, failed, mismatched int
	elapsed                       time.Duration
	// latencies holds the milliseconds of every correct completion.
	latencies []float64
	// answered marks the dev examples answered correctly at least once.
	answered []bool
	// cpuMS is the process CPU time per completion, in milliseconds, of
	// each window of the phase: every pass of the dev set on the loop
	// workloads, the whole phase on the serve workloads.
	cpuMS []float64
}

func (t *timed) record(i int, lat time.Duration, ok, match bool) {
	t.attempted++
	switch {
	case !ok:
		t.failed++
	case !match:
		t.failed++
		t.mismatched++
	default:
		t.latencies = append(t.latencies, ms(lat))
		t.answered[i] = true
	}
}

// exAccuracy is the share of dev examples whose answer is execution
// correct; an example never answered counts as wrong. Every answer was
// checked equal to the reference, whose EX score set-up computed.
func (t *timed) exAccuracy(e *env) float64 {
	n := 0
	for i, ok := range t.answered {
		if ok && e.exOK[i] {
			n++
		}
	}
	return ratio(float64(n), float64(len(t.answered)))
}

// runLoop is the closed-loop timed phase: one client translating the dev
// set in a fresh seeded order per pass, whole passes until dur has
// elapsed, so every run covers the same examples equally often.
func runLoop(ctx context.Context, e *env, seed int64, dur time.Duration) timed {
	order := newCycler(phaseRand(seed, "loop"), len(e.dev))
	t := timed{answered: make([]bool, len(e.dev))}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		cpu0, done0 := cpuTime(), len(t.latencies)
		for range e.dev {
			i := order.next()
			ex := e.dev[i]
			t0 := time.Now()
			res, err := e.pipeline.Translate(ctx, ex, e.dbs[ex.DBName])
			lat := time.Since(t0)
			t.record(i, lat, err == nil, err == nil && outcomeOf(res) == e.want[i])
		}
		t.cpuMS = append(t.cpuMS, ratio(ms(cpuTime()-cpu0), float64(len(t.latencies)-done0)))
	}
	t.elapsed = time.Since(start)
	return t
}

// runServe is one open-loop phase against the server at rate for dur;
// serve-writes runs its writer alongside.
func runServe(ctx context.Context, e *env, seed int64, phase string, rate float64, dur time.Duration) (timed, []sample) {
	rng := phaseRand(seed, phase)
	sched := schedule(rng, rate, dur, newCycler(rng, len(e.dev)))
	c := newClient(e.server.Handler(), e.dev)
	if e.w.writes {
		stop := e.startWriter()
		defer stop()
	}
	cpu0 := cpuTime()
	samples, elapsed := openLoop(wallClock{}, sched, func(ex int) reply { return c.translate(ctx, ex) })
	cpu := cpuTime() - cpu0
	t := timed{answered: make([]bool, len(e.dev)), elapsed: elapsed}
	for _, s := range samples {
		ok := s.rep.status == http.StatusOK
		t.record(s.ex, s.latency, ok, ok && e.want[s.ex].matches(s.rep.resp))
	}
	t.cpuMS = []float64{ratio(ms(cpu), float64(len(t.latencies)))}
	return t, samples
}

// startWriter rewrites one tenant's live store writesPerSecond times a
// second, round-robin, with an identity Mutate: every row is rewritten
// to itself, so answers never change, but each write bumps the epoch,
// copies the pinned tables, drops their indexes and leaves the next
// snapshot's executors, explainers and plan caches cold.
func (e *env) startWriter() (stop func()) {
	names := sortedNames(e.dbs)
	n := 0
	return every(time.Second/writesPerSecond, func() {
		e.dbs[names[n%len(names)]].Mutate(func(string, sqltypes.Row) {})
		n++
	})
}

// ladderStepResult is one rate of serve-open's ladder.
type ladderStepResult struct {
	rate        float64
	offered, ok int
	pct, tailMS float64
	fit         bool
}

// runLadder steps serve-open through ladderRates and returns each step
// and the highest rate whose tail latency stays within latencyLimitMS
// with at least 99% of requests answered. Failed requests count as
// missing the limit.
func runLadder(ctx context.Context, e *env, seed int64) ([]ladderStepResult, float64) {
	var steps []ladderStepResult
	maxRate := 0.0
	for _, rate := range ladderRates {
		_, samples := runServe(ctx, e, seed, fmt.Sprintf("ladder-%g", rate), rate, ladderStep)
		lat := make([]float64, len(samples))
		ok := 0
		for i, s := range samples {
			lat[i] = math.Inf(1)
			if s.rep.status == http.StatusOK && e.want[s.ex].matches(s.rep.resp) {
				lat[i] = ms(s.latency)
				ok++
			}
		}
		st := ladderStepResult{rate: rate, offered: len(samples), ok: ok, pct: math.Min(99, highestPercentile(len(samples)))}
		st.tailMS = percentile(sortedCopy(lat), st.pct)
		st.fit = st.tailMS <= latencyLimitMS && float64(ok) >= 0.99*float64(st.offered)
		if st.fit {
			maxRate = rate
		}
		steps = append(steps, st)
	}
	return steps, maxRate
}
