//go:build race

package extsort

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
