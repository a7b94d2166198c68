//go:build !race

package floatgate

const raceEnabled = false
