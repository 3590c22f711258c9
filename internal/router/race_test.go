//go:build race

package router

// raceEnabled tells allocation budgets to stand down (see internal/ms).
const raceEnabled = true
