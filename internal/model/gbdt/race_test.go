//go:build race

package gbdt

// raceEnabled tells allocation guards to stand down: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
