//go:build race

package floatgate

// raceEnabled reports whether the race detector is on; it makes
// sync.Pool drop items at random, so allocation counts are not stable.
const raceEnabled = true
