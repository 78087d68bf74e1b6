//go:build !race

package fleet

// raceEnabled reports whether the race detector is on; tests that count
// allocations skip under it.
const raceEnabled = false
