package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// sortPercentile is the sort-based Percentile that selection replaced:
// copy, sort.Float64s, interpolate. It is the oracle for the tests below.
func sortPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// samePercentile reports whether got may stand for want over xs: the same
// bits, or one of the documented tie cases — sort.Float64s ranks +0 and −0
// as equal (and all NaNs as equal), so when xs holds both signs of zero
// (or NaNs with different payloads) either member of the tie is correct.
func samePercentile(got, want float64, xs []float64) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	var posZero, negZero bool
	nans := map[uint64]bool{}
	for _, x := range xs {
		switch {
		case x == 0 && math.Signbit(x):
			negZero = true
		case x == 0:
			posZero = true
		case math.IsNaN(x):
			nans[math.Float64bits(x)] = true
		}
	}
	if got == 0 && want == 0 {
		return posZero && negZero
	}
	if math.IsNaN(got) && math.IsNaN(want) {
		return len(nans) > 1
	}
	return false
}

// percentileInput builds a test input of length n whose shape cycles with
// n: continuous values, heavy duplicates, special values (±Inf, NaN, ±0),
// sorted and reversed runs, and all-equal.
func percentileInput(r *RNG, n int) []float64 {
	xs := make([]float64, n)
	switch n % 6 {
	case 0:
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
	case 1:
		for i := range xs {
			xs[i] = float64(r.Intn(4))
		}
	case 2:
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1, -1}
		for i := range xs {
			if r.Intn(3) == 0 {
				xs[i] = specials[r.Intn(len(specials))]
			} else {
				xs[i] = r.Float64()
			}
		}
	case 3:
		for i := range xs {
			xs[i] = float64(i)
		}
	case 4:
		for i := range xs {
			xs[i] = float64(n - i)
		}
	case 5:
		for i := range xs {
			xs[i] = 2.5
		}
	}
	return xs
}

// TestPercentileMatchesSort pins the selection Percentile to the sort-based
// one bit for bit over lengths 1–4000 and the percentiles the code uses.
func TestPercentileMatchesSort(t *testing.T) {
	r := NewRNG(95)
	maxN := 4000
	for n := 1; n <= maxN; n++ {
		xs := percentileInput(r, n)
		orig := append([]float64(nil), xs...)
		for _, p := range []float64{0, 1, 50, 95, 99, 100, 100 * r.Float64()} {
			got, want := Percentile(xs, p), sortPercentile(xs, p)
			if !samePercentile(got, want, xs) {
				t.Fatalf("n=%d p=%v: selection %v (%#x), sort %v (%#x)",
					n, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("n=%d: Percentile modified its input", n)
			}
		}
	}
}

// TestPercentileSelectionFallback drives selectFloat into its sort
// fallback with an input whose median-of-three pivots stay poor, and
// checks the selected order statistics against a full sort.
func TestPercentileSelectionFallback(t *testing.T) {
	// Organ-pipe inputs keep the pivot near an end for many rounds.
	n := 3001
	xs := make([]float64, n)
	for i := range xs {
		if i < n/2 {
			xs[i] = float64(2 * i)
		} else {
			xs[i] = float64(2*(n-i) + 1)
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, k := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
		buf := append([]float64(nil), xs...)
		if got := selectFloat(buf, k); got != sorted[k] {
			t.Fatalf("k=%d: selected %v, want %v", k, got, sorted[k])
		}
	}
}

// FuzzPercentile checks the selection Percentile against the sort-based
// oracle on arbitrary float64 bit patterns.
func FuzzPercentile(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(3, 1, 2), 50.0)
	f.Add(enc(0, math.Copysign(0, -1), 0, 1), 95.0)
	f.Add(enc(math.NaN(), math.Inf(1), math.Inf(-1), 4, 4, 4), 99.0)
	f.Add(enc(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 0.0)
	f.Add(enc(5), 100.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if math.IsNaN(p) {
			t.Skip("a NaN percentile has no rank")
		}
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got, want := Percentile(xs, p), sortPercentile(xs, p)
		if !samePercentile(got, want, xs) {
			t.Fatalf("p=%v over %v: selection %v (%#x), sort %v (%#x)",
				p, xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
