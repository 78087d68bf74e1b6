//go:build race

package experiments

// raceEnabled reports whether the race detector is on; tests that rely
// on sync.Pool reuse skip under it.
const raceEnabled = true
