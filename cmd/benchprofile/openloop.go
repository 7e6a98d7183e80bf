package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/serve"
)

// clock is the time source the open-loop generator paces against; tests
// substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// phaseRand returns the random stream for one named phase of a run, so
// adding or skipping a phase never shifts another phase's inputs.
func phaseRand(seed int64, phase string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// cycler yields dev example indices as a sequence of seeded
// permutations, so every example recurs exactly once per cycle.
type cycler struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCycler(rng *rand.Rand, n int) *cycler {
	return &cycler{rng: rng, perm: make([]int, n), pos: n}
}

func (c *cycler) next() int {
	if c.pos == len(c.perm) {
		for i, j := range c.rng.Perm(len(c.perm)) {
			c.perm[i] = j
		}
		c.pos = 0
	}
	c.pos++
	return c.perm[c.pos-1]
}

// arrival is one scheduled request: when it is due, relative to the start
// of its phase, and which dev example it asks about.
type arrival struct {
	due time.Duration
	ex  int
}

// schedule draws the arrivals of a Poisson process at rate per second,
// conditioned on its count: arrival times drawn uniformly over the span
// the count takes at that rate, then sorted, so the gaps stay
// exponential. The count is the fewest whole cycles of order that last at
// least dur, so every example is asked equally often and each run offers
// the same mix.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, order *cycler) []arrival {
	cycle := len(order.perm)
	n := int(math.Ceil(rate*dur.Seconds()/float64(cycle))) * cycle
	span := time.Duration(float64(n) / rate * float64(time.Second))
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	for i := range out {
		out[i].ex = order.next()
	}
	return out
}

// sample is one open-loop request's outcome.
type sample struct {
	ex int
	// latency runs from the due time to completion, so a generator stall
	// counts against every request it delayed; lag is how late the
	// generator sent the request.
	latency, lag time.Duration
	rep          reply
}

// openLoop sends every arrival at its due time, each in its own goroutine
// so a slow response never delays later sends, and waits for all of them.
// The number in flight is bounded by rate × latency; the server sheds
// what it cannot queue.
func openLoop(clk clock, sched []arrival, send func(ex int) reply) (samples []sample, elapsed time.Duration) {
	start := clk.Now()
	samples = make([]sample, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.due)
		clk.SleepUntil(due)
		lag := clk.Now().Sub(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := send(a.ex)
			samples[i] = sample{ex: a.ex, latency: clk.Now().Sub(due), lag: lag, rep: r}
		}()
	}
	wg.Wait()
	return samples, clk.Now().Sub(start)
}

// client calls a serve.Server's handler in-process: no sockets, one
// pre-encoded request body per dev example.
type client struct {
	h      http.Handler
	paths  []string
	bodies [][]byte
}

func newClient(h http.Handler, dev []datasets.Example) *client {
	c := &client{h: h, paths: make([]string, len(dev)), bodies: make([][]byte, len(dev))}
	for i, ex := range dev {
		c.paths[i] = "/v1/" + ex.DBName + "/translate"
		// Marshalling a struct of strings and ints cannot fail.
		c.bodies[i], _ = json.Marshal(serve.TranslateRequest{Question: ex.Question})
	}
	return c
}

// reply is one translate response: the HTTP status and, for 200, the
// decoded body (status -1 marks a 200 whose body did not decode).
type reply struct {
	status int
	resp   serve.TranslateResponse
}

func (c *client) translate(ctx context.Context, i int) reply {
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, c.paths[i], bytes.NewReader(c.bodies[i]))
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	r := reply{status: rec.Code}
	if r.status == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &r.resp) != nil {
		r.status = -1
	}
	return r
}

func (c *client) metrics(ctx context.Context) (serve.MetricsView, error) {
	req := httptest.NewRequestWithContext(ctx, http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	var v serve.MetricsView
	err := json.Unmarshal(rec.Body.Bytes(), &v)
	return v, err
}

// every runs fn every d on its own goroutine until the returned stop is
// called; stop returns once the goroutine has exited.
func every(d time.Duration, fn func()) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
