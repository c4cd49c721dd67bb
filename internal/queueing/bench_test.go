package queueing

import (
	"testing"

	"stac/internal/stats"
)

func BenchmarkSimulate(b *testing.B) {
	cfg := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.8},
		Service:   stats.LognormalFromMeanCV(1, 0.5),
		Timeout:   1.5,
		BoostRate: 1.6,
		Queries:   4000,
		Warmup:    400,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRun is one Stage-3 simulation of the surrogate's
// shape (1500 measured queries, lognormal service) on a warm Simulator.
// same-seed reads the simulator's draw table, as a search sweeping
// parameters under one seed does; new-seed changes the seed every run,
// as the fleet migrator does, so every run draws its variates afresh.
func BenchmarkSimulatorRun(b *testing.B) {
	cfg := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.8},
		Service:   stats.LognormalFromMeanCV(1, 0.5),
		Timeout:   1.5,
		BoostRate: 1.6,
		Queries:   1500,
		Warmup:    150,
		Seed:      1,
	}
	for _, tc := range []struct {
		name    string
		newSeed bool
	}{{"same-seed", false}, {"new-seed", true}} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewSimulator()
			c := cfg
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.newSeed {
					c.Seed = uint64(i)
				}
				// Vary the rate a little, as the search does, so no
				// two consecutive runs are the same simulation.
				c.BoostRate = 1.5 + float64(i%8)*0.05
				if _, err := s.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
