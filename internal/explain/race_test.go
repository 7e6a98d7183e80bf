//go:build race

package explain

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool randomly drops pooled values to surface races, so
// the absolute allocation gates are skipped (the race-instrumented
// test job still runs every parity and concurrency assertion).
const raceEnabled = true
