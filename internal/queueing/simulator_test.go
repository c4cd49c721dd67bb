package queueing

import (
	"math"
	"reflect"
	"testing"

	"stac/internal/stats"
)

func simulatorConfigs() []Config {
	return []Config{
		{
			Servers: 1,
			Arrival: stats.Exponential{Rate: 0.6},
			Service: stats.Exponential{Rate: 1},
			Timeout: math.Inf(1), BoostRate: 1,
			Queries: 500, Warmup: 50, Seed: 7,
		},
		{
			Servers: 2,
			Arrival: stats.Exponential{Rate: 1.4},
			Service: stats.LognormalFromMeanCV(1, 0.8),
			Timeout: 2.5, BoostRate: 1.6,
			Queries: 800, Warmup: 80, Seed: 19,
		},
		{
			Servers: 4,
			Arrival: stats.Exponential{Rate: 3},
			Service: stats.LognormalFromMeanCV(1, 0.3),
			Timeout: 0, BoostRate: 1.3,
			Queries: 300, Warmup: 30, Seed: 31,
		},
	}
}

// TestSimulatorMatchesSimulate pins that a reused Simulator is
// bit-identical to the one-shot Simulate across back-to-back runs with
// different shapes (server counts, timeouts, query counts), including
// shrinking runs that leave stale data in the pooled buffers.
func TestSimulatorMatchesSimulate(t *testing.T) {
	s := NewSimulator()
	cfgs := simulatorConfigs()
	// Walk the configs twice so every transition (grow, shrink, reseed)
	// is exercised on warm buffers.
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range cfgs {
			got, err := s.Run(cfg)
			if err != nil {
				t.Fatalf("pass %d cfg %d: %v", pass, i, err)
			}
			want, err := Simulate(cfg)
			if err != nil {
				t.Fatalf("pass %d cfg %d: %v", pass, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d cfg %d: reused simulator diverged from Simulate", pass, i)
			}
		}
	}
}

// referenceSequence is a run sequence for one long-lived Simulator that
// walks its draw table through every transition: new seeds, a same-seed
// run that shrinks and then grows past the table (prefix reuse and
// extension), a same-seed switch of service distribution (a new variate
// kind), every service distribution, and timeouts 0, finite and +Inf.
func referenceSequence() []Config {
	base := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.5},
		Service:   stats.LognormalFromMeanCV(1, 0.6),
		Timeout:   1.5,
		BoostRate: 1.7,
		Queries:   600, Warmup: 60, Seed: 1,
	}
	with := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	return []Config{
		base,
		with(func(c *Config) { c.BoostRate = 0.8 }),
		with(func(c *Config) { c.Queries, c.Warmup = 200, 20 }),
		with(func(c *Config) { c.Queries, c.Warmup = 1500, 150 }),
		with(func(c *Config) { c.Arrival = stats.Exponential{Rate: 1.1}; c.Timeout = 0 }),
		with(func(c *Config) { c.Timeout = math.Inf(1) }),
		with(func(c *Config) { c.Seed = 2 }),
		with(func(c *Config) { c.Seed = 2; c.Queries, c.Warmup = 900, 90 }),
		base,
		with(func(c *Config) { c.Service = stats.Exponential{Rate: 1.2} }),
		with(func(c *Config) { c.Service = stats.Deterministic{Value: 0.9} }),
		with(func(c *Config) { c.Service = stats.Pareto{Xm: 0.4, Alpha: 2.5}; c.Timeout = 0 }),
		with(func(c *Config) { c.Service = stats.Uniform{Lo: 0.2, Hi: 1.6}; c.Timeout = math.Inf(1) }),
		with(func(c *Config) { c.Service = stats.Uniform{Lo: 0.5, Hi: 1.2}; c.Seed = 3 }),
		with(func(c *Config) { c.Arrival = stats.Deterministic{Value: 0.6}; c.Servers = 1 }),
		with(func(c *Config) { c.Servers = 4; c.Seed = 9; c.Queries, c.Warmup = 1200, 0 }),
		base,
	}
}

// TestSimulatorMatchesReference pins the draw-table simulator to the
// frozen inline-drawing loop: one Simulator runs the whole sequence, and
// every Result must equal a fresh reference run exactly.
func TestSimulatorMatchesReference(t *testing.T) {
	s := NewSimulator()
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range referenceSequence() {
			got, err := s.Run(cfg)
			if err != nil {
				t.Fatalf("pass %d cfg %d: %v", pass, i, err)
			}
			want, err := referenceRun(cfg)
			if err != nil {
				t.Fatalf("pass %d cfg %d: %v", pass, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d cfg %d: Simulator diverged from the reference loop", pass, i)
			}
			if one, _ := Simulate(cfg); !reflect.DeepEqual(one, want) {
				t.Errorf("pass %d cfg %d: Simulate diverged from the reference loop", pass, i)
			}
		}
	}
}

// TestSimulatorRunNoAllocs pins the optimisation itself: once warm, Run
// performs zero steady-state allocations, both when it reads its draw
// table and when alternating seeds make it refill the table every run.
func TestSimulatorRunNoAllocs(t *testing.T) {
	s := NewSimulator()
	cfg := simulatorConfigs()[1]
	if _, err := s.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Simulator.Run allocates %v times per run, want 0", allocs)
	}

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := s.Run(other); err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs = testing.AllocsPerRun(20, func() {
		c := cfg
		if flip = !flip; flip {
			c = other
		}
		if _, err := s.Run(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Simulator.Run alternating seeds allocates %v times per run, want 0", allocs)
	}
}
