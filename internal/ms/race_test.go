//go:build race

package ms

// raceEnabled tells allocation budgets to stand down: under the race
// detector sync.Pool drops a share of its puts on purpose.
const raceEnabled = true
