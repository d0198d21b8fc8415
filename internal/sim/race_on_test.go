//go:build race

package sim

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool drops a random quarter of its Puts, so assertions on
// recycled allocations are skipped.
const raceEnabled = true
