//go:build !race

package gbdt

const raceEnabled = false
