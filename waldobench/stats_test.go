package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestQuantileNearestRank(t *testing.T) {
	v := seq(1000)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0, 1}} {
		got, ok := Quantile(v, c.q)
		if !ok || got != c.want {
			t.Errorf("Quantile(1..1000, %v) = %v, %v; want %v, true", c.q, got, ok, c.want)
		}
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	// p90 of 100 samples has exactly 10 above rank 90: reported.
	if got, ok := Quantile(seq(100), 0.9); !ok || got != 90 {
		t.Errorf("p90 of 100 = %v, %v; want 90, true", got, ok)
	}
	// p90 of 99 samples has only 9 above its rank: withheld.
	if _, ok := Quantile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples reported; want withheld")
	}
	// p99 needs 1000 samples, p999 10000.
	if _, ok := Quantile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	if _, ok := Quantile(seq(10000), 0.999); !ok {
		t.Error("p999 of 10000 samples withheld")
	}
	if _, ok := Quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported")
	}
}

func TestMissesCountAgainstPercentiles(t *testing.T) {
	var s Samples
	for i := 0; i < 85; i++ {
		s.Add(1)
	}
	s.Miss(15)
	m := pct("x", &s, 0.9, "ms")
	if !m.OK || m.Value != missValue || m.N != 100 {
		t.Errorf("p90 with 15%% misses = %+v; want the miss value over 100 samples", m)
	}
	if m := pct("x", &s, 0.5, "ms"); m.Value != 1 {
		t.Errorf("p50 = %v; want 1", m.Value)
	}
	if !math.IsInf(s.Sorted()[99], 1) {
		t.Error("miss not kept as +Inf")
	}
}

func TestRawSamplesResolveSmallShifts(t *testing.T) {
	// A 2% shift must be visible: raw samples have no bucket width.
	var a, b Samples
	for i := 1; i <= 1000; i++ {
		a.Add(float64(i) / 1000)
		b.Add(1.02 * float64(i) / 1000)
	}
	pa, pb := pct("a", &a, 0.9, "ms"), pct("b", &b, 0.9, "ms")
	if r := pb.Value / pa.Value; math.Abs(r-1.02) > 1e-9 {
		t.Errorf("p90 ratio = %v; want 1.02", r)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %v", m)
	}
}

func TestWindowedPercentileIgnoresOneStalledWindow(t *testing.T) {
	// 1250 samples one millisecond apart: five windows of 250, the last
	// of them stalled.
	var s Samples
	t0 := time.Now()
	for i := 0; i < 1250; i++ {
		v := 1.0
		if i >= 1000 {
			v = 50
		}
		s.addAt(v, t0.Add(time.Duration(i)*time.Millisecond))
	}
	whole := pct("x", &s, 0.9, "ms")
	if whole.Value != 50 {
		t.Fatalf("whole-run p90 = %v; want the stall, 50", whole.Value)
	}
	if w := pctWindowed("x", &s, 0.9, "ms"); w.Value != 1 || w.N != 1250 {
		t.Errorf("windowed p90 = %+v; want 1 over 1250 samples", w)
	}
}

func TestWindowedPercentileCountsMissesEverywhere(t *testing.T) {
	var s Samples
	t0 := time.Now()
	for i := 0; i < 1000; i++ {
		s.addAt(1, t0.Add(time.Duration(i)*time.Millisecond))
	}
	s.Miss(150) // 13% misses, spread over every window
	if w := pctWindowed("x", &s, 0.9, "ms"); w.Value != missValue {
		t.Errorf("windowed p90 with 13%% misses = %v; want the miss value", w.Value)
	}
	if n := countMisses(&s); n != 150 {
		t.Errorf("countMisses = %d; want 150", n)
	}
}

func TestWindowedPercentileFallsBackWhenThin(t *testing.T) {
	var s Samples
	t0 := time.Now()
	for i := 1; i <= 120; i++ {
		s.addAt(float64(i), t0.Add(time.Duration(i)*time.Millisecond))
	}
	// 24 samples a window cannot carry a p90; the whole run can.
	if w := pctWindowed("x", &s, 0.9, "ms"); !w.OK || w.Value != 108 {
		t.Errorf("thin windowed p90 = %+v; want the whole-run 108", w)
	}
}
