package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestMetricNameRule(t *testing.T) {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("metric %q breaks the name rule", d.name)
		}
	}
	for _, bad := range []string{"", "pipeline/pass_s", ".pass_s", "pass s", "p99%", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, good := range []string{"p50_ms.low", "9lives", "a-b_c.d", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("%q rejected", good)
		}
	}
}

// BENCHMARK.json at the repository root declares the same metrics, with
// the same units and directions, as the code prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, declared []struct{ Name, Unit, Better string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(code), len(declared))
			return
		}
		for i, d := range code {
			m := declared[i]
			if d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("%s %d: code %v, BENCHMARK.json %+v", kind, i, d, m)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted input
	}
	for q, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestKneeRateInterpolates(t *testing.T) {
	const limit, deadline = 10.0, 50.0
	ladder := func(tails ...float64) []rung {
		rs := make([]rung, len(tails))
		for i, tail := range tails {
			rs[i] = rung{Rate: 1000 * float64(i+1), TailMS: tail, OK: true}
		}
		return rs
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

	// Crossing halfway between the 2000/s and 3000/s rungs.
	if r, ok, cens := kneeRate(ladder(4, 8, 12, 30), limit, deadline); !ok || cens || !approx(r, 2500) {
		t.Errorf("crossing: %v %v %v, want 2500", r, ok, cens)
	}
	// A small change in the failing rung's tail moves the result a
	// little rather than a whole rung.
	a, _, _ := kneeRate(ladder(4, 8, 12.0), limit, deadline)
	b, _, _ := kneeRate(ladder(4, 8, 12.2), limit, deadline)
	if a <= b || a-b > 100 {
		t.Errorf("not continuous: %v then %v", a, b)
	}
	// A rung with failures counts as reaching the deadline.
	rs := ladder(4, 8, 9)
	rs[2].OK = false
	if r, ok, _ := kneeRate(rs, limit, deadline); !ok || !approx(r, 2000+1000*2.0/42) {
		t.Errorf("failed rung: %v %v", r, ok)
	}
	// Every rung passes: the top rate, censored.
	if r, ok, cens := kneeRate(ladder(4, 5, 6), limit, deadline); !ok || !cens || r != 3000 {
		t.Errorf("censored: %v %v %v", r, ok, cens)
	}
	// The first rung fails: no rate.
	if _, ok, _ := kneeRate(ladder(11, 12), limit, deadline); ok {
		t.Error("first rung failing reported a rate")
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	mk := func(xs ...float64) string {
		d := newDigest()
		d.str("plan")
		d.floats(xs)
		return d.sum()
	}
	if mk(1, 2, 3) != mk(1, 2, 3) {
		t.Fatal("equal inputs digest differently")
	}
	if mk(1, 2, 3) == mk(1, 2, math.Nextafter(3, 4)) {
		t.Error("a one-ulp change went unseen")
	}
	if mk(1, 2, 3) == mk(1, 3, 2) {
		t.Error("order went unseen")
	}
	if mk(1, 2) == mk(1, 2, 0) {
		t.Error("length went unseen")
	}
}

// A pass whose digest drifts from the warm-up pass's counts as failed
// and makes the run incorrect.
func TestBatchPassToPassDigest(t *testing.T) {
	for _, drift := range []bool{false, true} {
		calls := 0
		prepare := func(seed uint64) (fixture, error) {
			return fixture{pass: func(tr *tracer) (passOut, error) {
				calls++
				if drift && calls == setupRepeats+2 {
					return passOut{digest: "changed", work: 1}, nil
				}
				return passOut{digest: "same", work: 1}, nil
			}}, nil
		}
		res, v, err := runWorkload(prepare, runConfig{workload: "fake", seed: 99, seconds: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		wantFailed := 0
		if drift {
			wantFailed = 1
		}
		if res.Attempted < minPasses || res.Failed != wantFailed || res.Correct == drift {
			t.Errorf("drift %v: attempted %d failed %d correct %v", drift, res.Attempted, res.Failed, res.Correct)
		}
		if want := okRatio(res.Attempted, wantFailed); v["ok_ratio"] != want {
			t.Errorf("drift %v: ok_ratio %v, want %v", drift, v["ok_ratio"], want)
		}
	}
}

// A span's self time excludes the union of its children's intervals,
// which may overlap, as concurrent requests under one pass do.
func TestStageSelfTimeUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "pass", Pass: 0, Parent: -1, Start: 0, End: 10},
		{Name: "req", Pass: 0, Parent: 0, Start: 1, End: 4},
		{Name: "req", Pass: 0, Parent: 0, Start: 2, End: 6},
		{Name: "req", Pass: 0, Parent: 0, Start: 8, End: 9},
		{Name: "pass", Pass: 1, Parent: -1, Start: 20, End: 21},
	}}
	st := tr.stages()
	if got := st[0].self["pass"]; got != 4 {
		t.Errorf("pass self = %v, want 4", got)
	}
	if got := st[0].total["req"]; got != 8 {
		t.Errorf("req total = %v, want 8", got)
	}
	if got := st[1].self["pass"]; got != 1 {
		t.Errorf("second pass self = %v, want 1", got)
	}
}
