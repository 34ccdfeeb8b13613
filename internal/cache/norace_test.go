//go:build !race

package cache

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
