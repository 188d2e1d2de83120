//go:build race

package core

// raceEnabled reports a race-detector build. The detector slows simulation
// about tenfold, so exhaustive campaign matrices run a sample under it.
const raceEnabled = true
