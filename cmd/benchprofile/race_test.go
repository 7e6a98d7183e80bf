//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool randomly drops pooled values, so allocation counts do
// not repeat and TestAllocCountsRepeat is skipped.
const raceEnabled = true
