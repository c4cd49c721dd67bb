package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest measured passes a run makes, however
// short --seconds is.
const minPasses = 3

// passOut is what one pass hands back for checking and accounting.
type passOut struct {
	// digest covers every output the pass's check compares.
	digest string
	// work is the pass's units of work_per_cpu_s (simulated queries,
	// plans, replies).
	work float64
	// ops and failed count the operations of a pass made of many
	// (serve-cold's requests) and those that failed their check; a pass
	// with ops 0 is one operation.
	ops, failed int
	// detail carries workload values the traced run reports.
	detail map[string]float64
}

// passFunc runs one pass. tr is nil on untraced passes.
type passFunc func(tr *tracer) (passOut, error)

// fixture is a workload's set-up product: the pass to repeat, the
// per-layer metrics it derives in the traced run, and what releases it.
type fixture struct {
	pass   passFunc
	layers func(t *traceRun) error
	close  func()
}

// traceRun is what a workload's per-layer step sees of the traced run.
// It sets its metrics in v and counts any requests it sends in res.
type traceRun struct {
	tr     *tracer
	traced []tracedPass
	stages map[int]stageTimes
	cfg    runConfig
	v      map[string]float64
	res    *result
}

// tracedPass indexes one traced pass's spans and output.
type tracedPass struct {
	id  int
	out passOut
}

// spanObs returns the obs delta of pass p's first span named name.
func (t *tracer) spanObs(p int, name string) *obsDelta {
	for _, sp := range t.spans {
		if sp.Pass == p && sp.Name == name && sp.Obs != nil {
			return sp.Obs
		}
	}
	return &obsDelta{}
}

// stage returns the median over the traced passes of the named stage's
// total time.
func (t *traceRun) stage(name string) float64 {
	return medianOver(t.traced, func(p tracedPass) float64 { return t.stages[p.id].total[name] })
}

// medianOver applies f to each traced pass and returns the median.
func medianOver(traced []tracedPass, f func(tracedPass) float64) float64 {
	xs := make([]float64, len(traced))
	for i, p := range traced {
		xs[i] = f(p)
	}
	return median(xs)
}

// runWorkload runs a workload of identical passes: setupRepeats set-ups,
// each building the fixture and running one discarded warm-up pass,
// then passes until --seconds have elapsed. Set-ups and passes are timed
// both in process CPU seconds, which the end-to-end metrics report, and
// in wall seconds, which the traced run's stage accounting uses. Every pass's digest must
// equal the first warm-up pass's, and for the default seed the
// committed one. The traced run alternates traced and untraced passes;
// their medians differ by the tracing overhead.
func runWorkload(prepare func(seed uint64) (fixture, error), cfg runConfig) (result, map[string]float64, error) {
	var (
		fx      fixture
		ref     string
		setups  []float64 // CPU seconds
		setupsW []float64 // wall seconds
		coldObs obsDelta
		res     = result{Correct: true}
	)
	for k := 0; k < setupRepeats; k++ {
		if fx.close != nil {
			fx.close()
		}
		if k > 0 {
			releaseMemory()
		}
		before := readObs()
		c0, t0 := cpuSeconds(), time.Now()
		f, err := prepare(cfg.seed)
		if err != nil {
			return res, nil, fmt.Errorf("set-up: %w", err)
		}
		out, err := f.pass(nil)
		if err != nil {
			return res, nil, fmt.Errorf("warm-up pass: %w", err)
		}
		setups = append(setups, cpuSeconds()-c0)
		setupsW = append(setupsW, time.Since(t0).Seconds())
		if k == 0 {
			ref = out.digest
			coldObs = readObs().since(before)
		} else if out.digest != ref {
			fmt.Printf("check: set-up %d digest %s differs from %s\n", k, out.digest, ref)
			res.Correct = false
		}
		fx = f
	}
	if fx.close != nil {
		defer fx.close()
	}
	fmt.Printf("%s seed %d: output digest %s\n", cfg.workload, cfg.seed, ref)
	if !checkCommitted(cfg, ref) {
		res.Correct = false
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		untraced, tracedSec []float64 // wall seconds
		untracedCPU         []float64
		traced              []tracedPass
		work, busyCPU       float64
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		var ptr *tracer
		if tr != nil && i%2 == 0 {
			ptr, tr.pass = tr, i
		}
		var out passOut
		c0, t0 := cpuSeconds(), time.Now()
		err := ptr.doObs("pass", func() (err error) {
			out, err = fx.pass(ptr)
			return err
		})
		d, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		ops := max(out.ops, 1)
		res.Attempted += ops
		switch {
		case err != nil:
			fmt.Printf("check: pass %d failed: %v\n", i, err)
			res.Failed += ops
		case out.failed > 0:
			fmt.Printf("check: pass %d: %d of %d operations failed\n", i, out.failed, ops)
			res.Failed += out.failed
		case out.digest != ref:
			fmt.Printf("check: pass %d digest %s differs from %s\n", i, out.digest, ref)
			res.Failed += ops
		}
		if ptr != nil {
			tracedSec = append(tracedSec, d)
			traced = append(traced, tracedPass{id: i, out: out})
		} else {
			untraced = append(untraced, d)
			untracedCPU = append(untracedCPU, cpu)
		}
		work += out.work
		busyCPU += cpu
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if !cfg.trace {
		fmt.Printf("%s: %d set-ups, median %.4f CPU s, %.4f wall s\n", cfg.workload, len(setups), median(setups), median(setupsW))
		fmt.Printf("%s: %d passes, median %.4f CPU s (min %.4f, max %.4f), %.4f wall s (min %.4f, max %.4f)\n",
			cfg.workload, len(untraced), median(untracedCPU), percentile(untracedCPU, 0), percentile(untracedCPU, 100),
			median(untraced), percentile(untraced, 0), percentile(untraced, 100))
		return res, map[string]float64{
			"setup_s":        median(setups),
			"ok_ratio":       okRatio(res.Attempted, res.Failed),
			"peak_rss_mb":    peakRSSMB(),
			"pass_cpu_s":     median(untracedCPU),
			"work_per_cpu_s": work / busyCPU,
		}, nil
	}

	v := layerValues()
	v["pass_wall_s"] = median(untraced)
	stages := tr.stages()
	passSec := median(tracedSec)
	v["trace.overhead"] = passSec - median(untraced)
	v["residual_s"] = medianOver(traced, func(p tracedPass) float64 { return stages[p.id].self["pass"] })
	v["residual_share"] = v["residual_s"] / passSec
	stats := func(p tracedPass) *obsDelta { return tr.spanObs(p.id, "pass") }
	for name, counter := range map[string]string{
		"testbed.runs":           "testbed/runs",
		"testbed.queries":        "testbed/queries",
		"testbed.truncated_runs": "testbed/truncated_runs",
		"queueing.simulations":   "queueing/simulations",
		"queueing.queries":       "queueing/queries",
		"fleet.migrations":       "fleet/migrations",
	} {
		v[name] = medianOver(traced, func(p tracedPass) float64 { return stats(p).Counters[counter] })
	}
	v["cache.accesses"] = medianOver(traced, func(p tracedPass) float64 { return stats(p).accesses() })
	v["cache.llc_miss_ratio"] = medianOver(traced, func(p tracedPass) float64 { return stats(p).llcMissRatio() })
	v["testbed.calibrations"] = coldObs.Counters["testbed/calibrations"]
	if n := coldObs.Counters["testbed/calibrations"] + coldObs.Counters["testbed/calibration_cache_hits"]; n > 0 {
		v["testbed.calibration_hit_ratio"] = coldObs.Counters["testbed/calibration_cache_hits"] / n
	}
	if err := fx.layers(&traceRun{tr: tr, traced: traced, stages: stages, cfg: cfg, v: v, res: &res}); err != nil {
		return res, nil, err
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	printStages(cfg.workload, stages, traced, passSec, v["residual_s"])
	if path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return res, nil, fmt.Errorf("writing spans: %w", err)
	} else {
		fmt.Printf("spans written to %s\n", path)
	}
	return res, v, nil
}

// traceDir is where the traced run writes its spans, relative to the
// working directory (the checkout root under run.sh).
const traceDir = ".bench_build/trace"

// accesses is the simulated cache accesses in the delta: every access
// probes L1 once.
func (d *obsDelta) accesses() float64 {
	return d.Counters["cache/l1/hits"] + d.Counters["cache/l1/misses"]
}

// llcMissRatio is the LLC miss ratio over every service's class.
func (d *obsDelta) llcMissRatio() float64 {
	var hits, misses float64
	for name, n := range d.Counters {
		if !strings.HasPrefix(name, "cache/llc/svc/") {
			continue
		}
		switch {
		case strings.HasSuffix(name, "/hits"):
			hits += n
		case strings.HasSuffix(name, "/misses"):
			misses += n
		}
	}
	if hits+misses == 0 {
		return 0
	}
	return misses / (hits + misses)
}

// printStages prints each span name's median total and self time over
// the traced passes, and how much of the pass the stages account for.
func printStages(workload string, stages map[int]stageTimes, traced []tracedPass, passSec, residual float64) {
	names := map[string]bool{}
	for _, p := range traced {
		for n := range stages[p.id].total {
			names[n] = true
		}
	}
	order := make([]string, 0, len(names))
	for n := range names {
		order = append(order, n)
	}
	sort.Strings(order)
	fmt.Printf("%s stages over %d traced passes (median per pass; concurrent spans summed):\n", workload, len(traced))
	fmt.Printf("  %-26s %9s %9s\n", "stage", "total_s", "self_s")
	for _, n := range order {
		total := medianOver(traced, func(p tracedPass) float64 { return stages[p.id].total[n] })
		self := medianOver(traced, func(p tracedPass) float64 { return stages[p.id].self[n] })
		label := n
		if n == "pass" {
			label = "pass (self = residual_s)"
		}
		fmt.Printf("  %-26s %9.4f %9.4f\n", label, total, self)
	}
	fmt.Printf("  stages cover %.2f%% of the traced pass, %.4f wall s\n", 100*(1-residual/passSec), passSec)
}
