//go:build race

package stream

// raceEnabled tells the heap budgets to stand down: the race detector
// shadows every allocation.
const raceEnabled = true
