package stats

import (
	"math"
	"testing"
)

func sampleMean(d Dist, n int, seed uint64) float64 {
	r := NewRNG(seed)
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(d.Sample(r))
	}
	return w.Mean()
}

func TestExponentialMean(t *testing.T) {
	for _, rate := range []float64{0.5, 1, 4} {
		d := Exponential{Rate: rate}
		got := sampleMean(d, 200000, 21)
		if math.Abs(got-d.Mean())/d.Mean() > 0.02 {
			t.Errorf("rate %v: sample mean %v, want ~%v", rate, got, d.Mean())
		}
	}
}

func TestExponentialPositive(t *testing.T) {
	d := Exponential{Rate: 2}
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("bad exponential sample %v", v)
		}
	}
}

func TestLognormalFromMeanCV(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{{1, 0.5}, {10, 1}, {0.05, 2}} {
		d := LognormalFromMeanCV(tc.mean, tc.cv)
		if math.Abs(d.Mean()-tc.mean)/tc.mean > 1e-9 {
			t.Errorf("analytic mean %v, want %v", d.Mean(), tc.mean)
		}
		got := sampleMean(d, 400000, 33)
		if math.Abs(got-tc.mean)/tc.mean > 0.05 {
			t.Errorf("mean=%v cv=%v: sample mean %v", tc.mean, tc.cv, got)
		}
	}
}

func TestParetoMean(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 3}
	want := d.Mean()
	got := sampleMean(d, 400000, 44)
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("sample mean %v, want ~%v", got, want)
	}
}

func TestParetoMeanPanicsForHeavyTail(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Alpha <= 1")
		}
	}()
	Pareto{Xm: 1, Alpha: 1}.Mean()
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 3.5}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 3.5 {
			t.Fatal("deterministic sample varied")
		}
	}
	if d.Mean() != 3.5 {
		t.Fatal("deterministic mean wrong")
	}
}

func TestUniform(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", v)
		}
	}
	got := sampleMean(d, 100000, 9)
	if math.Abs(got-4) > 0.05 {
		t.Fatalf("uniform mean %v, want ~4", got)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 0.99)
	r := NewRNG(77)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Rank 0 should be sampled far more often than rank 999.
	if counts[0] < 50*counts[999]+1 {
		t.Fatalf("zipf not skewed: head %d, tail %d", counts[0], counts[999])
	}
	// All samples in range is implied by indexing; check head frequency sane.
	if counts[0] == 0 {
		t.Fatal("head never sampled")
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	r := NewRNG(5)
	counts := make([]int, 10)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(n)
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("rank %d frequency %v, want ~0.1", i, frac)
		}
	}
}

// TestZipfGuideMatchesBinarySearch pins the guide-table sampler to the
// binary search it replaced: for every draw the selected rank must be
// the smallest index whose CDF value reaches u (capped at n-1), so
// swapping the search cannot move a single downstream random bit.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	ref := func(z *Zipf, u float64) int {
		lo, hi := 0, z.n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 0}, {2, 1}, {10, 0}, {100, 0.5}, {1000, 0.99}, {4096, 1.3}, {777, 2.5}} {
		z := NewZipf(tc.n, tc.s)
		rDraw := NewRNG(42)
		rRef := NewRNG(42)
		for i := 0; i < 20000; i++ {
			got := z.Sample(rDraw)
			u := rRef.Float64()
			if want := ref(z, u); got != want {
				t.Fatalf("n=%d s=%v draw %d (u=%v): guide %d, binary search %d", tc.n, tc.s, i, u, got, want)
			}
		}
		// Boundary values exercise the round-up correction directly.
		for _, u := range []float64{0, 1e-300, z.cdf[0], z.cdf[tc.n-1], z.cdf[tc.n/2], 0.999999999999} {
			k := int(u * float64(z.n))
			if k >= z.n {
				k = z.n - 1
			}
			i := int(z.guide[k])
			for i < z.n-1 && z.cdf[i] < u {
				i++
			}
			for i > 0 && z.cdf[i-1] >= u {
				i--
			}
			if want := ref(z, u); i != want {
				t.Fatalf("n=%d s=%v u=%v: guide walk %d, binary search %d", tc.n, tc.s, u, i, want)
			}
		}
	}
}

// TestSampleIsTransformOfStandardDraw pins the split every Dist declares:
// Sample consumes the RNG exactly as its standard draw does and returns
// the transform of that draw, bit for bit.
func TestSampleIsTransformOfStandardDraw(t *testing.T) {
	for _, d := range []Dist{
		Exponential{Rate: 3},
		LognormalFromMeanCV(0.002, 0.8),
		Pareto{Xm: 1.5, Alpha: 2.2},
		Uniform{Lo: -1, Hi: 4},
		Deterministic{Value: 0.7},
	} {
		a, b := NewRNG(17), NewRNG(17)
		for i := 0; i < 2000; i++ {
			got, want := d.Sample(a), d.Transform(d.Standard().Draw(b))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%T draw %d: Sample %v, transformed standard draw %v", d, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("%T: Sample and the standard draw left the RNG in different states", d)
		}
	}
}
