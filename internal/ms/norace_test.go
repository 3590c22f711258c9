//go:build !race

package ms

const raceEnabled = false
