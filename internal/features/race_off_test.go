//go:build !race

package features

// raceEnabled reports whether this test binary was built with the race
// detector. See race_on_test.go.
const raceEnabled = false
