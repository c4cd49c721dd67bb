package main

import (
	"time"

	"stac"
	"stac/internal/mrc"
	"stac/internal/testbed"
)

// The search workload ranks every CAT plan for redis + social at load
// 0.9 with the surrogate searcher. It never calls Validate, so the cache
// simulator stays out of the pass.
const searchLoad = 0.9

func prepareSearch(seed uint64) (fixture, error) {
	ka, err := stac.WorkloadByName("redis")
	if err != nil {
		return fixture{}, err
	}
	kb, err := stac.WorkloadByName("social")
	if err != nil {
		return fixture{}, err
	}
	scfg := stac.SearchConfig{KernelA: ka, KernelB: kb, LoadA: searchLoad, LoadB: searchLoad, Seed: seed}
	pass := func(tr *tracer) (passOut, error) {
		var s *stac.Searcher
		if err := tr.doObs("surrogate.New", func() (err error) {
			s, err = stac.NewSearcher(scfg)
			return err
		}); err != nil {
			return passOut{}, err
		}
		var plans []stac.MaskPlan
		_ = tr.do("Searcher.EnumeratePlans", func() error {
			plans = s.EnumeratePlans()
			return nil
		})
		var ranked []stac.PlanEvaluation
		if err := tr.doObs("Searcher.Search", func() (err error) {
			ranked, err = s.Search(plans)
			return err
		}); err != nil {
			return passOut{}, err
		}
		d := newDigest()
		d.int(s.SimRuns())
		d.int(len(ranked))
		for _, ev := range ranked {
			p := ev.Plan
			d.int(p.PrivA)
			d.int(p.PrivB)
			d.int(p.Shared)
			d.f64(p.TimeoutA)
			d.f64(p.TimeoutB)
			d.f64(ev.Score)
			d.floats(ev.Speedup[:])
			d.floats(ev.P95[:])
			d.floats(ev.BoostedFrac[:])
		}
		return passOut{
			digest: d.sum(),
			work:   float64(len(ranked)),
			detail: map[string]float64{"sims_per_plan": float64(s.SimRuns()) / float64(len(plans))},
		}, nil
	}
	layers := func(t *traceRun) error {
		tr, traced, v := t.tr, t.traced, t.v
		v["surrogate.new_s"] = t.stage("surrogate.New")
		v["surrogate.search_s"] = t.stage("Searcher.Search")
		v["surrogate.sims_per_plan"] = medianOver(traced, func(p tracedPass) float64 { return p.out.detail["sims_per_plan"] })
		v["queueing.ns_per_query"] = medianOver(traced, func(p tracedPass) float64 {
			return perUnit(t.stages[p.id].total["Searcher.Search"], tr.spanObs(p.id, "Searcher.Search").Counters["queueing/queries"], 1e9)
		})
		// The searcher's default curve source: an exact Mattson pass over
		// 40000 accesses per kernel.
		var times []float64
		for rep := 0; rep < 3; rep++ {
			for _, k := range []stac.Kernel{ka, kb} {
				t0 := time.Now()
				if _, err := mrc.KernelCurve(k, testbed.LineSize, 40000, 13); err != nil {
					return err
				}
				times = append(times, time.Since(t0).Seconds())
			}
		}
		v["mrc.curve_s"] = median(times)
		return nil
	}
	return fixture{pass: pass, layers: layers}, nil
}
