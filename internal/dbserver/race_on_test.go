//go:build race

package dbserver

// raceEnabled reports whether this test binary was built with the race
// detector. Latency-regime assertions consult it: the detector's ~10×
// CPU multiplier turns benign background work into physical contention
// on small machines, which is not the signal those tests gate on.
const raceEnabled = true
