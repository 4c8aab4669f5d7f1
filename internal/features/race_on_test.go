//go:build race

package features

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation budgets consult it: they hold for plain builds,
// and under the race detector sync.Pool drops items at random.
const raceEnabled = true
