//go:build race

package sqleval

// raceEnabled reports whether the race detector is compiled in. Race
// instrumentation allocates on its own, so allocation gates skip under it.
const raceEnabled = true
