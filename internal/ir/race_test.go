//go:build race

package ir

// raceEnabled reports a race-detector build. Under -race, sync.Pool drops
// a share of its Puts on purpose, so a pooled scratch buffer can be
// allocated again in any run.
const raceEnabled = true
