//go:build race

package query

// raceEnabled turns off the allocation-count checks: the race detector
// instruments allocations and makes sync.Pool drop items at random, so
// counts taken under it say nothing about the program.
const raceEnabled = true
