//go:build !race

package sqleval

// raceEnabled reports whether the race detector is compiled in; see
// race_test.go.
const raceEnabled = false
