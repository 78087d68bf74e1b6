//go:build !race

package sched

// raceEnabled reports whether the race detector is on; tests that count
// allocations skip under it.
const raceEnabled = false
