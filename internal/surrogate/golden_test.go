package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"stac/internal/workload"
)

// searchGoldenDigest is the sha256 of the full redis+social seed-1
// ranking (every plan's fields, Score, P95, Mean and BoostedFrac, then
// SimRuns) as the sort-based percentile and inline-drawing simulator
// produced it. Any change to the surrogate's numerics moves it.
const searchGoldenDigest = "c096608e4829855bbdc901fe17105c4d3b9c4bc031ff43cc0dfdec0c5f95079f"

// TestSearchGoldenDigest pins the whole 4294-plan ranking bit for bit.
func TestSearchGoldenDigest(t *testing.T) {
	s, err := New(Config{
		KernelA: workload.Redis(), KernelB: workload.Social(),
		LoadA: 0.9, LoadB: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := s.EnumeratePlans()
	ranked, err := s.Search(plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 4294 {
		t.Fatalf("ranked %d plans, want 4294", len(ranked))
	}
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, ev := range ranked {
		p := ev.Plan
		put(float64(p.PrivA), float64(p.PrivB), float64(p.Shared), p.TimeoutA, p.TimeoutB, ev.Score)
		put(ev.P95[:]...)
		put(ev.Mean[:]...)
		put(ev.BoostedFrac[:]...)
	}
	put(float64(s.SimRuns()))
	if got := hex.EncodeToString(h.Sum(nil)); got != searchGoldenDigest {
		t.Errorf("search ranking digest %s, want %s", got, searchGoldenDigest)
	}
}
