package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// does not modify xs.
//
// It returns what sorting a copy with sort.Float64s and interpolating
// would, without the sort: a quickselect places the lower rank, and the
// upper rank is the minimum of the elements above it. Both read the same
// order statistics the sort would, so the result is exact. Only elements
// that sort.Float64s ranks as equal yet differ in bits (a +0 tied with a
// −0, or NaNs with different payloads) may be picked differently; then the
// result can differ in the sign of a zero or in a NaN's payload.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	buf := append([]float64(nil), xs...)
	n := len(buf)
	if n == 1 {
		return buf[0]
	}
	// sort.Float64s ranks NaNs below every number. Gather them at the
	// front, so ranks below nans are NaNs and the selection over nums
	// compares numbers only.
	nans := 0
	for i, x := range buf {
		if x != x {
			buf[i], buf[nans] = buf[nans], x
			nans++
		}
	}
	nums := buf[nans:]
	if p <= 0 {
		if nans > 0 {
			return buf[0]
		}
		return minFloat(nums)
	}
	if p >= 100 {
		if len(nums) == 0 {
			return buf[n-1]
		}
		return maxFloat(nums)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	var a float64
	if lo < nans {
		a = buf[lo]
	} else {
		a = selectFloat(nums, lo-nans)
	}
	if lo == hi {
		return a
	}
	// Every number past the selected rank ranks at or above it, so the
	// next order statistic is their minimum.
	var b float64
	if hi < nans {
		b = buf[hi]
	} else {
		b = minFloat(nums[hi-nans:])
	}
	frac := rank - float64(lo)
	return a*(1-frac) + b*frac
}

func minFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// selectFloat reorders xs, which holds no NaN, so that xs[k] is the
// element sort.Float64s would place at k, with everything before it at or
// below it and everything after at or above, and returns xs[k]. It is a
// quickselect with a median-of-three pivot and Hoare partitioning, whose
// scans stop on elements equal to the pivot, so runs of duplicates still
// split evenly. A range that keeps partitioning badly is sorted instead,
// bounding the worst case at O(n log n).
func selectFloat(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		a, pivot, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if pivot < a {
			a, pivot = pivot, a
		}
		if c < pivot {
			pivot = c
			if pivot < a {
				pivot = a
			}
		}
		// After the loop xs[lo:j+1] <= pivot <= xs[j+1:hi+1], with
		// lo <= j < hi because the pivot is the median of three elements
		// of the range.
		i, j := lo-1, hi+1
		for {
			for j--; pivot < xs[j]; j-- {
			}
			for i++; xs[i] < pivot; i++ {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return xs[k]
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
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

// APE returns the absolute percentage error of predicted vs actual, as a
// fraction (0.11 == 11%). When actual is 0 it returns the absolute error.
func APE(actual, predicted float64) float64 {
	if actual == 0 {
		return math.Abs(predicted)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// APEs returns element-wise absolute percentage errors. It panics when the
// two slices differ in length.
func APEs(actual, predicted []float64) []float64 {
	if len(actual) != len(predicted) {
		panic("stats: APEs length mismatch")
	}
	out := make([]float64, len(actual))
	for i := range actual {
		out[i] = APE(actual[i], predicted[i])
	}
	return out
}

// Summary holds order statistics of a sample. Build one with Summarize.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs without modifying it.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		StdDev: StdDev(sorted),
		Min:    sorted[0],
		P50:    percentileSorted(sorted, 50),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Welford accumulates mean and variance online (Welford's algorithm),
// avoiding storage of the whole sample. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
