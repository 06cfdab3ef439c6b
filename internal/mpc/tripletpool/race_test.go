//go:build race

package tripletpool

const raceEnabled = true
