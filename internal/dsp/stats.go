package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN if len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs (NaNs for an empty slice).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted. Returns NaN
// for empty input or p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile over a slice already in sort.Float64s
// order (see InsertSorted); it neither copies nor allocates.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// FiveNumber is the boxplot summary of a sample: minimum, lower quartile,
// median, upper quartile, maximum (paper Figs. 10–11 report these per
// feature per occupancy class).
type FiveNumber struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize returns the five-number summary of xs.
func Summarize(xs []float64) FiveNumber {
	if len(xs) == 0 {
		nan := math.NaN()
		return FiveNumber{nan, nan, nan, nan, nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return FiveNumber{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
	}
}

// IQR returns the interquartile range Q3−Q1.
func (f FiveNumber) IQR() float64 { return f.Q3 - f.Q1 }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// Returns NaN if the lengths differ, fewer than two samples are given, or
// either series is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MovingAverage returns the trailing moving average of xs with the given
// window (window ≥ 1). Element i averages xs[max(0,i-window+1) .. i], so the
// output has the same length as the input and warms up from the first value.
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}

// TrimOutliers returns the elements of xs within the [loPct, hiPct]
// percentile band, preserving order. This is the detector's 5th–95th
// percentile outlier rejection step (paper §3.3).
func TrimOutliers(xs []float64, loPct, hiPct float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	lo := Percentile(xs, loPct)
	hi := Percentile(xs, hiPct)
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	return out
}

// InsertSorted inserts x into sorted, which must be in sort.Float64s order
// (NaNs first), and returns the slice still in that order. It lets a
// growing stream keep a sorted shadow for its percentiles without a copy
// and a sort per element.
func InsertSorted(sorted []float64, x float64) []float64 {
	// Binary search for the first element x sorts before, so x lands
	// after any equal elements.
	i, j := 0, len(sorted)
	for i < j {
		h := int(uint(i+j) >> 1)
		if x < sorted[h] || (math.IsNaN(x) && !math.IsNaN(sorted[h])) {
			j = h
		} else {
			i = h + 1
		}
	}
	sorted = append(sorted, 0)
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = x
	return sorted
}

// TrimmedMeanCISpan returns MeanCI(TrimOutliers(xs, loPct, hiPct),
// level).Span() bit for bit, and the number of elements the band kept,
// without allocating. sorted must hold xs in sort.Float64s order and z
// must be NormalQuantile(0.5 + level/2). Both sums run over xs in its own
// order, as MeanCI's run over the trimmed slice, so they round alike.
func TrimmedMeanCISpan(xs, sorted []float64, loPct, hiPct, z float64) (span float64, kept int) {
	if len(xs) == 0 {
		return math.Inf(1), 0
	}
	lo := PercentileSorted(sorted, loPct)
	hi := PercentileSorted(sorted, hiPct)
	var sum float64
	for _, x := range xs {
		if x >= lo && x <= hi {
			sum += x
			kept++
		}
	}
	if kept < 2 {
		return math.Inf(1), kept
	}
	m := sum / float64(kept)
	var ss float64
	for _, x := range xs {
		if x >= lo && x <= hi {
			d := x - m
			ss += d * d
		}
	}
	half := z * math.Sqrt(ss/float64(kept-1)) / math.Sqrt(float64(kept))
	return (m + half) - (m - half), kept
}
