package main

import (
	"fmt"
	"time"

	"stac"
	"stac/internal/obs"
	"stac/internal/policy"
)

// The pipeline workload is the capacity planner's path, the same work as
// `stac pipeline -a redis -b bfs -points 12`.
const (
	pipelinePoints = 12
	pipelineLoad   = 0.9
)

func preparePipeline(seed uint64) (fixture, error) {
	ka, err := stac.WorkloadByName("redis")
	if err != nil {
		return fixture{}, err
	}
	kb, err := stac.WorkloadByName("bfs")
	if err != nil {
		return fixture{}, err
	}
	queries := obs.C("testbed/queries")
	// The last pass's predictor and scenarios, for the standalone
	// core.predict_ms probe.
	var (
		lastPred *stac.Predictor
		lastSA   stac.Scenario
		lastSB   stac.Scenario
	)
	pass := func(tr *tracer) (passOut, error) {
		q0 := queries.Load()
		var ds stac.Dataset
		if err := tr.doObs("stac.Profile", func() (err error) {
			ds, err = stac.Profile(stac.ProfileOptions{KernelA: ka, KernelB: kb, Points: pipelinePoints, Seed: seed})
			return err
		}); err != nil {
			return passOut{}, err
		}
		var pred *stac.Predictor
		if err := tr.doObs("stac.Train", func() (err error) {
			pred, err = stac.Train(ds, stac.TrainOptions{Seed: seed + 1})
			return err
		}); err != nil {
			return passOut{}, err
		}
		var sa, sb stac.Scenario
		if err := tr.do("stac.NewScenario", func() (err error) {
			if sa, err = stac.NewScenario(ds, ka.Name, pipelineLoad, pipelineLoad); err != nil {
				return err
			}
			sb, err = stac.NewScenario(ds, kb.Name, pipelineLoad, pipelineLoad)
			return err
		}); err != nil {
			return passOut{}, err
		}
		var dec stac.Decision
		if err := tr.doObs("stac.FindPolicy", func() (err error) {
			dec, err = stac.FindPolicy(pred, sa, sb)
			return err
		}); err != nil {
			return passOut{}, err
		}
		var sp [2]float64
		if err := tr.doObs("stac.EvaluatePolicy", func() (err error) {
			ctx := stac.PairContext{KernelA: ka, KernelB: kb, LoadA: pipelineLoad, LoadB: pipelineLoad, Seed: seed + 2}
			sp, err = stac.EvaluatePolicy(ctx, dec)
			return err
		}); err != nil {
			return passOut{}, err
		}
		lastPred, lastSA, lastSB = pred, sa, sb
		d := newDigest()
		datasetDigest(d, ds)
		d.str(dec.Name)
		d.f64(dec.TimeoutA)
		d.f64(dec.TimeoutB)
		d.f64(sp[0])
		d.f64(sp[1])
		return passOut{digest: d.sum(), work: float64(queries.Load() - q0)}, nil
	}
	layers := func(t *traceRun) error {
		tr, traced, v := t.tr, t.traced, t.v
		v["profile.collect_s"] = t.stage("stac.Profile")
		v["deepforest.train_s"] = t.stage("stac.Train")
		v["policy.find_s"] = t.stage("stac.FindPolicy")
		v["policy.evaluate_s"] = t.stage("stac.EvaluatePolicy")
		// The testbed-bound stages are profiling and evaluation; find is
		// the queueing-bound one.
		v["cache.ns_per_access"] = medianOver(traced, func(p tracedPass) float64 {
			st := t.stages[p.id].total
			n := tr.spanObs(p.id, "stac.Profile").accesses() + tr.spanObs(p.id, "stac.EvaluatePolicy").accesses()
			return perUnit(st["stac.Profile"]+st["stac.EvaluatePolicy"], n, 1e9)
		})
		v["queueing.ns_per_query"] = medianOver(traced, func(p tracedPass) float64 {
			return perUnit(t.stages[p.id].total["stac.FindPolicy"], tr.spanObs(p.id, "stac.FindPolicy").Counters["queueing/queries"], 1e9)
		})
		ms, err := predictGridMS(lastPred, lastSA, lastSB)
		v["core.predict_ms"] = ms
		return err
	}
	return fixture{pass: pass, layers: layers}, nil
}

// predictGridMS times Predictor.PredictResponse standalone on each of the
// FindPolicy grid's scenarios and returns the median in milliseconds.
func predictGridMS(p *stac.Predictor, sa, sb stac.Scenario) (float64, error) {
	if p == nil {
		return 0, fmt.Errorf("no predictor to probe")
	}
	var times []float64
	grid := policy.TimeoutGrid()
	for _, ta := range grid {
		for _, tb := range grid {
			a, b := sa, sb
			a.Timeout, a.PartnerTimeout = ta, tb
			b.Timeout, b.PartnerTimeout = tb, ta
			for _, s := range []stac.Scenario{a, b} {
				t0 := time.Now()
				if _, err := p.PredictResponse(s); err != nil {
					return 0, err
				}
				times = append(times, ms(time.Since(t0)))
			}
		}
	}
	return median(times), nil
}

// datasetDigest folds every row of a profiling dataset into d.
func datasetDigest(d *digest, ds stac.Dataset) {
	d.int(len(ds.Rows))
	for _, r := range ds.Rows {
		d.floats(r.Features)
		d.f64(r.EA)
		d.f64(r.RespMean)
		d.f64(r.RespP95)
		d.f64(r.ExpService)
		d.f64(r.STMean)
		d.f64(r.STCV)
		d.str(r.Service)
		d.int(r.CondID)
	}
}

// perUnit returns total/n scaled (0 when n is 0).
func perUnit(total, n, scale float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n * scale
}
