//go:build race

package experiments_test

// raceEnabled reports whether the race detector is compiled in. The paper
// golden regenerates every table twice, which takes minutes under -race;
// it runs without the detector, and the batch worker parity suite covers
// the sweep's concurrency under it.
const raceEnabled = true
