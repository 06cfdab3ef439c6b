//go:build race

package tensor

const raceEnabled = true
