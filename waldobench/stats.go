package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// Samples keeps every latency of one operation class as a raw value in
// milliseconds, so percentiles carry no bucketing error, with the time it
// was recorded. A failed, refused or dropped operation is kept as a miss
// (+Inf): it counts in every percentile, above any latency limit.
type Samples struct {
	mu     sync.Mutex
	v      []float64
	at     []time.Time
	misses int
}

// Observe records one completed operation that took d.
func (s *Samples) Observe(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// Add records one value in milliseconds.
func (s *Samples) Add(ms float64) { s.addAt(ms, time.Now()) }

func (s *Samples) addAt(ms float64, at time.Time) {
	s.mu.Lock()
	s.v = append(s.v, ms)
	s.at = append(s.at, at)
	s.mu.Unlock()
}

// Miss records n operations that failed or never ran.
func (s *Samples) Miss(n int) {
	s.mu.Lock()
	s.misses += n
	s.mu.Unlock()
}

// Sorted returns a sorted copy of the samples, misses last as +Inf.
func (s *Samples) Sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	for i := 0; i < s.misses; i++ {
		out = append(out, math.Inf(1))
	}
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// Len is the number of recorded samples, misses included.
func (s *Samples) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v) + s.misses
}

// Misses is the number of recorded misses.
func (s *Samples) Misses() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Windows splits the samples into k windows of equal duration by the
// time they were recorded, each sorted; misses are spread evenly over
// the windows, so every window's percentiles count them.
func (s *Samples) Windows(k int) [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]float64, k)
	if len(s.v) > 0 {
		first, last := s.at[0], s.at[0]
		for _, t := range s.at {
			if t.Before(first) {
				first = t
			}
			if t.After(last) {
				last = t
			}
		}
		span := last.Sub(first) + 1
		for i, v := range s.v {
			w := int(int64(s.at[i].Sub(first)) * int64(k) / int64(span))
			out[w] = append(out[w], v)
		}
	}
	for i := 0; i < s.misses; i++ {
		out[i%k] = append(out[i%k], math.Inf(1))
	}
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// Quantile returns the nearest-rank q-quantile of sorted values. ok is
// false when fewer than minBeyond samples lie above the chosen rank, so a
// tail is never read off a handful of samples.
func Quantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	return sorted[rank], true
}

// Median returns the middle of values (the mean of the two middle ones
// for an even count), or 0 for none.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Metric is one named result line.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind a percentile; 0 for other metrics.
	N int
	// OK is false when the value could not be measured (too few samples
	// beyond a percentile).
	OK bool
}

// missValue stands in for a percentile that falls on a miss: JSON has no
// infinity, and any real latency is far below it.
const missValue = 1e9

// pct reads the q-quantile of s as a metric named name.
func pct(name string, s *Samples, q float64, unit string) Metric {
	sorted := s.Sorted()
	v, ok := Quantile(sorted, q)
	return Metric{Name: name, Value: finite(v), Unit: unit, N: len(sorted), OK: ok}
}

// latencyWindows is how many equal slices of a run a server latency
// percentile is read in.
const latencyWindows = 5

// pctWindowed reads the q-quantile of s in each of latencyWindows time
// windows and reports their median, so a stall that hits one window of
// the run moves the figure less than a slowdown that hits all of them.
// When a window has too few samples beyond its quantile, it falls back
// to the quantile of the whole run.
func pctWindowed(name string, s *Samples, q float64, unit string) Metric {
	var per []float64
	for _, w := range s.Windows(latencyWindows) {
		v, ok := Quantile(w, q)
		if !ok {
			return pct(name, s, q, unit)
		}
		per = append(per, v)
	}
	return Metric{Name: name, Value: finite(Median(per)), Unit: unit, N: s.Len(), OK: true}
}

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return missValue
	}
	return v
}

// val is a plain measured value.
func val(name string, v float64, unit string) Metric {
	return Metric{Name: name, Value: v, Unit: unit, OK: true}
}

// String renders the metric as one report line.
func (m Metric) String() string {
	v := "n/a"
	if m.OK {
		v = fmt.Sprintf("%.6g", m.Value)
	}
	if m.N > 0 {
		return fmt.Sprintf("%-36s %12s %-10s n=%d", m.Name, v, m.Unit, m.N)
	}
	return fmt.Sprintf("%-36s %12s %s", m.Name, v, m.Unit)
}
