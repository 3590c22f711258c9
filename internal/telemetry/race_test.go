//go:build race

package telemetry

// raceEnabled tells allocation budgets to stand down: under the race
// detector sync.Pool drops what it is given at random.
const raceEnabled = true
