//go:build race

package nn

// raceEnabled reports whether the race detector is compiled in; the
// absolute allocation gates are skipped under -race.
const raceEnabled = true
