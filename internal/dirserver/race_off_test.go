//go:build !race

package dirserver

const raceEnabled = false
