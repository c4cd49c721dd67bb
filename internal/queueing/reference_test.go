package queueing

import (
	"math"

	"stac/internal/stats"
)

// referenceRun is the simulation loop as it stood before the standard
// variates moved into the Simulator's draw table: it draws every query's
// arrival and service sample inline from a fresh RNG. It is frozen here
// as the oracle for TestSimulatorMatchesReference; it skips only the
// obs metric updates, which do not touch the Result.
func referenceRun(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	rng := stats.NewRNG(cfg.Seed)
	total := cfg.Queries + cfg.Warmup
	serverFree := make([]float64, cfg.Servers)
	res := Result{
		ResponseTimes: make([]float64, 0, cfg.Queries),
		QueueDelays:   make([]float64, 0, cfg.Queries),
		Arrivals:      make([]float64, 0, cfg.Queries),
	}
	boosted := 0
	now := 0.0
	for q := 0; q < total; q++ {
		now += cfg.Arrival.Sample(rng)
		work := cfg.Service.Sample(rng)
		if work <= 0 {
			work = 1e-12
		}

		best := 0
		for i := 1; i < cfg.Servers; i++ {
			if serverFree[i] < serverFree[best] {
				best = i
			}
		}
		start := math.Max(now, serverFree[best])
		boostAt := now + cfg.Timeout

		var completion float64
		wasBoosted := false
		if math.IsInf(cfg.Timeout, 1) {
			completion = start + work
		} else if start >= boostAt {
			completion = start + work/cfg.BoostRate
			wasBoosted = true
		} else {
			baseSpan := boostAt - start
			if work <= baseSpan {
				completion = start + work
			} else {
				completion = boostAt + (work-baseSpan)/cfg.BoostRate
				wasBoosted = true
			}
		}
		serverFree[best] = completion

		if q >= cfg.Warmup {
			res.ResponseTimes = append(res.ResponseTimes, completion-now)
			res.QueueDelays = append(res.QueueDelays, start-now)
			res.Arrivals = append(res.Arrivals, now)
			if wasBoosted {
				boosted++
			}
		}
	}
	if cfg.Queries > 0 {
		res.BoostedFrac = float64(boosted) / float64(cfg.Queries)
	}
	return res, nil
}
