package main

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps; stalls[k] adds extra
// time at the k-th sleep, standing in for a generator that ran late.
type fakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	stalls map[int]time.Duration
	sleeps int
}

func newFakeClock(stalls map[int]time.Duration) *fakeClock {
	c := &fakeClock{now: time.Unix(1000, 0), stalls: stalls}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.stalls[c.sleeps])
	c.sleeps++
	c.cond.Broadcast()
}

// waitUntil blocks until the clock reads at least t.
func (c *fakeClock) waitUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.now.Before(t) {
		c.cond.Wait()
	}
}

// TestOpenLoopTimesFromDueTime stalls the generator for 25ms at its
// second send. Every request completes once the clock has passed the last
// due time, so each latency must be the final clock reading minus the
// request's due time: the stall counts against every request it delayed,
// where timing from the send would hide it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	clk := newFakeClock(map[int]time.Duration{1: 25 * ms})
	start := clk.Now()
	sched := []arrival{{0, 0}, {10 * ms, 1}, {20 * ms, 2}, {30 * ms, 3}}
	samples, elapsed := openLoop(clk, sched, func(int) reply {
		clk.waitUntil(start.Add(30 * ms))
		return reply{status: 200}
	})
	end := 35 * ms // the stall pushed the clock past the last due time
	if elapsed != end {
		t.Errorf("elapsed = %v, want %v", elapsed, end)
	}
	wantLag := []time.Duration{0, 25 * ms, 15 * ms, 5 * ms}
	for i, s := range samples {
		if s.ex != sched[i].ex {
			t.Errorf("sample %d asked about example %d, want %d", i, s.ex, sched[i].ex)
		}
		if s.lag != wantLag[i] {
			t.Errorf("sample %d lag = %v, want %v", i, s.lag, wantLag[i])
		}
		if want := end - sched[i].due; s.latency != want {
			t.Errorf("sample %d latency = %v, want %v (completion minus due time)", i, s.latency, want)
		}
	}
}

func TestScheduleIsSeededAndPoisson(t *testing.T) {
	draw := func(seed int64) []arrival {
		rng := phaseRand(seed, "nominal")
		return schedule(rng, 400, 2*time.Second, newCycler(rng, 270))
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 800 arrivals round up to three whole cycles of 270, over 2.025s.
	if len(a) != 810 {
		t.Fatalf("400 rps for 2s scheduled %d arrivals, want 810", len(a))
	}
	asked := make([]int, 270)
	for _, x := range a {
		asked[x.ex]++
	}
	for ex, n := range asked {
		if n != 3 {
			t.Fatalf("example %d asked %d times, want 3", ex, n)
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Fatal("arrivals are not in due order")
	}
	if last := a[len(a)-1].due; last >= 2025*time.Millisecond {
		t.Fatalf("last arrival due at %v, past the 2.025s span", last)
	}
	// The mean gap of a rate-400 process is 2.5ms.
	if gap := a[len(a)-1].due / time.Duration(len(a)-1); gap < 2*time.Millisecond || gap > 3*time.Millisecond {
		t.Fatalf("mean gap %v, want about 2.5ms", gap)
	}
}

func TestExampleOrderIsSeededPermutations(t *testing.T) {
	order := func(seed int64, phase string) []int {
		c := newCycler(phaseRand(seed, phase), 270)
		out := make([]int, 3*270)
		for i := range out {
			out[i] = c.next()
		}
		return out
	}
	a := order(3, "loop")
	if !reflect.DeepEqual(a, order(3, "loop")) {
		t.Fatal("the same seed gave two different example orders")
	}
	if reflect.DeepEqual(a, order(4, "loop")) || reflect.DeepEqual(a, order(3, "traced")) {
		t.Fatal("another seed or phase gave the same example order")
	}
	for cycle := 0; cycle < 3; cycle++ {
		seen := make([]bool, 270)
		for _, i := range a[cycle*270 : (cycle+1)*270] {
			if seen[i] {
				t.Fatalf("cycle %d repeats example %d", cycle, i)
			}
			seen[i] = true
		}
	}
	if reflect.DeepEqual(a[:270], a[270:540]) {
		t.Fatal("consecutive passes use the same order")
	}
}
