//go:build race

package nand

// raceEnabled reports whether the race detector is on; it slows the
// physics several times over, so wall-time bounds do not hold.
const raceEnabled = true
