package telemetry

import (
	"math"
	"runtime"
	"testing"
)

// TestRuntimeDeltaCapturesGC forces garbage-collection cycles between two
// snapshots and asserts the delta sees them: cycle count, pause samples,
// allocation totals, and sane quantiles.
func TestRuntimeDeltaCapturesGC(t *testing.T) {
	before := ReadRuntime()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 4; i++ {
		for j := 0; j < 16; j++ {
			sink = append(sink, make([]byte, 64<<10))
		}
		runtime.GC()
	}
	_ = sink
	after := ReadRuntime()
	d := after.DeltaSince(before)

	if d.GCCycles == 0 {
		t.Fatal("forced runtime.GC cycles not visible in delta")
	}
	if d.Pauses.Count() == 0 {
		t.Fatal("GC cycles recorded but no pause samples in delta")
	}
	if d.AllocBytes < 4*16*(64<<10) {
		t.Errorf("AllocBytes = %d, want at least the %d explicitly allocated", d.AllocBytes, 4*16*(64<<10))
	}
	if d.AllocObjects == 0 {
		t.Error("AllocObjects = 0 over an allocating window")
	}

	p50 := d.Pauses.Quantile(0.50)
	p99 := d.Pauses.Quantile(0.99)
	max := d.Pauses.Max()
	if p50 <= 0 || math.IsInf(p50, 0) {
		t.Errorf("p50 pause = %v, want finite positive", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 (%v) < p50 (%v)", p99, p50)
	}
	if max < p99 {
		t.Errorf("max (%v) < p99 (%v)", max, p99)
	}
}

// TestRuntimeDeltaZeroWindow asserts a delta over an idle window is
// well-formed: zero quantiles, no panics on empty histograms.
func TestRuntimeDeltaZeroWindow(t *testing.T) {
	s := ReadRuntime()
	d := s.DeltaSince(s)
	if d.GCCycles != 0 || d.AllocBytes != 0 {
		// Not an error: another goroutine may allocate between the two
		// copies inside this test binary — but with the SAME snapshot on
		// both sides the delta must be exactly zero.
		t.Errorf("self-delta not zero: %+v", d)
	}
	if d.Pauses.Count() != 0 {
		t.Errorf("self-delta pause count = %d", d.Pauses.Count())
	}
	if q := d.Pauses.Quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %v", q)
	}
	if m := d.Pauses.Max(); m != 0 {
		t.Errorf("empty histogram max = %v", m)
	}
}

// TestRuntimeDeltaAgainstZeroSnapshot guards the mismatched-shape path: a
// zero-value prev must yield the whole current histogram, not panic.
func TestRuntimeDeltaAgainstZeroSnapshot(t *testing.T) {
	runtime.GC()
	s := ReadRuntime()
	d := s.DeltaSince(RuntimeSnapshot{})
	if d.Pauses.Count() == 0 {
		t.Error("delta against zero snapshot lost the cumulative pause history")
	}
}
