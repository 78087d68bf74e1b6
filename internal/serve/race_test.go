//go:build race

package serve

// raceEnabled reports whether the race detector is on; tests that count
// allocations skip under it.
const raceEnabled = true
