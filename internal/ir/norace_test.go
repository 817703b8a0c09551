//go:build !race

package ir

// raceEnabled reports a race-detector build.
const raceEnabled = false
