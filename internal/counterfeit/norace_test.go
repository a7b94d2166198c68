//go:build !race

package counterfeit

const raceEnabled = false
