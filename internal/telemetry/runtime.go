package telemetry

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Runtime capture: the repo benchmark (waldobench/) needs the GC-pause
// distribution and allocation counters over a bounded load window, not
// since process start. RuntimeSnapshot reads the runtime's own
// cumulative counters via runtime/metrics (cheap: no stop-the-world,
// unlike runtime.ReadMemStats), and DeltaSince subtracts two snapshots
// into a window-scoped view with quantile accessors over the GC pause
// histogram. That is what lets a workload report "p90 GC pause while
// serving 20k readings/s" instead of a lifetime blur.

// Sample names read by RuntimeSnapshot. /gc/pauses:seconds is the
// distribution of individual stop-the-world pause latencies, exactly the
// series a latency SLO cares about.
const (
	samplePauses       = "/gc/pauses:seconds"
	sampleGCCycles     = "/gc/cycles/total:gc-cycles"
	sampleAllocBytes   = "/gc/heap/allocs:bytes"
	sampleAllocObjects = "/gc/heap/allocs:objects"
)

// RuntimeSnapshot is a point-in-time copy of the process's cumulative GC
// and allocation counters.
type RuntimeSnapshot struct {
	// PauseBuckets/PauseCounts mirror the runtime's cumulative
	// Float64Histogram of stop-the-world pause durations:
	// len(PauseBuckets) == len(PauseCounts)+1, PauseCounts[i] counting
	// pauses in (PauseBuckets[i], PauseBuckets[i+1]]. The boundary slices
	// may include ±Inf at the ends.
	PauseBuckets []float64
	PauseCounts  []uint64
	// GCCycles is the completed GC cycle count.
	GCCycles uint64
	// AllocBytes / AllocObjects are the cumulative heap allocation
	// totals.
	AllocBytes   uint64
	AllocObjects uint64
	// Goroutines is the live goroutine count at snapshot time (a level,
	// not a counter; DeltaSince keeps the newer value).
	Goroutines int
}

// ReadRuntime captures the current runtime counters.
func ReadRuntime() RuntimeSnapshot {
	samples := []metrics.Sample{
		{Name: samplePauses},
		{Name: sampleGCCycles},
		{Name: sampleAllocBytes},
		{Name: sampleAllocObjects},
	}
	metrics.Read(samples)
	var s RuntimeSnapshot
	if h := samples[0].Value; h.Kind() == metrics.KindFloat64Histogram {
		fh := h.Float64Histogram()
		s.PauseBuckets = append([]float64(nil), fh.Buckets...)
		s.PauseCounts = append([]uint64(nil), fh.Counts...)
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		s.GCCycles = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindUint64 {
		s.AllocBytes = v.Uint64()
	}
	if v := samples[3].Value; v.Kind() == metrics.KindUint64 {
		s.AllocObjects = v.Uint64()
	}
	s.Goroutines = runtime.NumGoroutine()
	return s
}

// RuntimeDelta is the runtime activity between two snapshots.
type RuntimeDelta struct {
	// Pauses is the GC pause distribution within the window.
	Pauses PauseHistogram
	// GCCycles, AllocBytes, AllocObjects are window totals.
	GCCycles     uint64
	AllocBytes   uint64
	AllocObjects uint64
	// Goroutines is the level at the end of the window.
	Goroutines int
}

// DeltaSince returns the runtime activity since prev. The runtime's
// pause bucket layout is fixed for the life of the process; if it ever
// differs between the snapshots (e.g. a zero-value prev), the newer
// histogram is returned whole.
func (s RuntimeSnapshot) DeltaSince(prev RuntimeSnapshot) RuntimeDelta {
	d := RuntimeDelta{
		GCCycles:     s.GCCycles - prev.GCCycles,
		AllocBytes:   s.AllocBytes - prev.AllocBytes,
		AllocObjects: s.AllocObjects - prev.AllocObjects,
		Goroutines:   s.Goroutines,
	}
	d.Pauses.Buckets = s.PauseBuckets
	d.Pauses.Counts = append([]uint64(nil), s.PauseCounts...)
	if len(prev.PauseCounts) == len(s.PauseCounts) && len(prev.PauseBuckets) == len(s.PauseBuckets) {
		for i, c := range prev.PauseCounts {
			d.Pauses.Counts[i] -= c
		}
	}
	return d
}

// PauseHistogram is a GC pause distribution in runtime/metrics layout:
// len(Buckets) == len(Counts)+1, with possibly infinite boundary buckets.
type PauseHistogram struct {
	Buckets []float64
	Counts  []uint64
}

// Count returns the number of pauses recorded.
func (h PauseHistogram) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Max returns the upper bound of the highest non-empty bucket — the
// worst pause's bucket ceiling, the conservative read for an SLO.
func (h PauseHistogram) Max() float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			_, hi := h.bounds(i)
			return hi
		}
	}
	return 0
}

// Quantile estimates the q-quantile pause duration (upper bound of the
// containing bucket — conservative, like Prometheus histogram_quantile
// without interpolation across the runtime's fine-grained buckets).
func (h PauseHistogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= rank && c > 0 {
			_, hi := h.bounds(i)
			return hi
		}
	}
	return h.Max()
}

// bounds returns finite (lo, hi] boundaries for bucket i: infinite edges
// collapse onto their finite neighbor so callers never see ±Inf.
func (h PauseHistogram) bounds(i int) (lo, hi float64) {
	lo, hi = h.Buckets[i], h.Buckets[i+1]
	if math.IsInf(lo, -1) {
		lo = 0
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	return lo, hi
}
