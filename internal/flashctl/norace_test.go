//go:build !race

package flashctl_test

const raceEnabled = false
