//go:build !race

package comm

const raceEnabled = false
