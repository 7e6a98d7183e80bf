//go:build race

package sqlast_test

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool randomly drops pooled values to surface races, so
// the absolute allocation gates are skipped.
const raceEnabled = true
