package main

import (
	"fmt"

	"stac/internal/fleet"
)

const (
	// fleetWorkers is the fleet's node fan-out. One worker keeps the pass
	// steady on a 2-core host and matches BENCH_fleet.json's headline.
	fleetWorkers = 1
	// fleetEpochLen fixes the epoch length (simulated seconds). The
	// scenario otherwise derives it from the seed's calibrations, which
	// moved the simulated query count, and so the pass time, by ±15%
	// between seeds.
	fleetEpochLen = 0.0155
	// fleetRuns is how many hot-shift scenarios, each with its own seed
	// drawn from the run's seed, one pass simulates.
	fleetRuns = 2
)

func prepareFleet(seed uint64) (fixture, error) {
	pass := func(tr *tracer) (passOut, error) {
		d := newDigest()
		var queries int
		for r := uint64(0); r < fleetRuns; r++ {
			cfg := fleet.ScenarioHotShift(seed*fleetRuns+r, true)
			cfg.Workers = fleetWorkers
			cfg.EpochLen = fleetEpochLen
			var res *fleet.Result
			if err := tr.doObs("fleet.Run", func() (err error) {
				res, err = fleet.Run(cfg)
				return err
			}); err != nil {
				return passOut{}, err
			}
			if res.Truncated != 0 {
				return passOut{}, fmt.Errorf("%d truncated node runs", res.Truncated)
			}
			digestFleet(d, res)
			queries += res.Queries
		}
		return passOut{digest: d.sum(), work: float64(queries)}, nil
	}
	layers := func(t *traceRun) error {
		tr, traced, v := t.tr, t.traced, t.v
		v["fleet.epoch_ms"] = medianOver(traced, func(p tracedPass) float64 {
			o := tr.spanObs(p.id, "pass")
			return perUnit(o.SpanSec["fleet/epoch"], o.SpanCount["fleet/epoch"], 1e3)
		})
		v["cache.ns_per_access"] = medianOver(traced, func(p tracedPass) float64 {
			return perUnit(t.stages[p.id].total["fleet.Run"], tr.spanObs(p.id, "pass").accesses(), 1e9)
		})
		return nil
	}
	return fixture{pass: pass, layers: layers}, nil
}

// digestFleet folds a fleet result's exported outcome into d.
func digestFleet(d *digest, res *fleet.Result) {
	d.int(res.Queries)
	d.f64(res.FleetMean)
	d.f64(res.FleetP95)
	d.floats(res.EpochP95)
	d.int(res.Truncated)
	d.int(len(res.Migrations))
	for _, m := range res.Migrations {
		d.int(m.Epoch)
		d.str(m.Service)
		d.str(m.From)
		d.str(m.To)
		d.str(m.Reason)
		d.f64(m.PredictedFrom)
		d.f64(m.PredictedTo)
		d.f64(m.SLA)
	}
}
