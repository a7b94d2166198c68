//go:build race

package flashctl_test

// raceEnabled reports whether the race detector is on; it slows the
// full-registry render oracle to tens of seconds.
const raceEnabled = true
