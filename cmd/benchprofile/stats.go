package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// tailPercentiles are the percentiles a tail latency may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest percentile in tailPercentiles that
// leaves at least ten of n samples beyond it, or 0 when even the median
// does not. A percentile with fewer samples beyond it is one or two
// outliers, not a measurement.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile.
func rank(n int, p float64) int {
	// The epsilon keeps binary rounding of p (99.9 is not exact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle two for even
// counts), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. Unlike wall time it leaves out the time a
// shared host's hypervisor gives this machine's CPUs to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
