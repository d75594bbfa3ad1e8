//go:build !race

package extsort

const raceEnabled = false
