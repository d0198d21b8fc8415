//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this build;
// allocation bounds are skipped under it.
const raceEnabled = true
