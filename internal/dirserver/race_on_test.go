//go:build race

package dirserver

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
