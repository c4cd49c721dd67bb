package main

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A serial target that stalls on its first request must show the stall
// on every request due while it lasted, since latency runs from the due
// time, and the generator must still send every request.
func TestOpenLoopStallDelaysLaterRequests(t *testing.T) {
	const stall = 30 * time.Millisecond
	var mu sync.Mutex
	var calls atomic.Int64
	target := func(i int) (float64, error) {
		calls.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return float64(i), nil
	}
	r := openLoop{rate: 1000, duration: 80 * time.Millisecond, seed: 7}.run(target)
	if n := len(r.due); n < 20 || int(calls.Load()) != n {
		t.Fatalf("scheduled %d requests, target saw %d", n, calls.Load())
	}
	if r.failed() != 0 {
		t.Fatalf("failed = %d, want 0", r.failed())
	}
	delayed := 0
	for i := 1; i < len(r.due); i++ {
		if r.due[i] >= r.due[0]+stall {
			continue
		}
		delayed++
		// Request i cannot finish before request 0 released the target.
		if floor := r.due[0] + stall - r.due[i]; r.latency[i] < floor {
			t.Errorf("request %d due at %v: latency %v, want at least %v", i, r.due[i], r.latency[i], floor)
		}
	}
	if delayed == 0 {
		t.Fatal("no request was due during the stall")
	}
}

// Requests the target refuses count as failures and as missing any
// latency limit; none is dropped by the generator.
func TestOpenLoopShedsCountAsFailures(t *testing.T) {
	errShed := errors.New("queue full")
	target := func(i int) (float64, error) {
		if i%4 == 0 {
			return 0, errShed
		}
		return 1, nil
	}
	r := openLoop{rate: 2000, duration: 50 * time.Millisecond, seed: 3}.run(target)
	want := (len(r.due) + 3) / 4
	if r.failed() != want {
		t.Fatalf("failed = %d, want %d of %d", r.failed(), want, len(r.due))
	}
	lat := r.latenciesMS()
	for i, l := range lat {
		if (i%4 == 0) != math.IsInf(l, 1) {
			t.Errorf("request %d: latency %v, shed %v", i, l, i%4 == 0)
		}
	}
	if p := percentile(lat, 99); !math.IsInf(p, 1) {
		t.Errorf("p99 with a quarter shed = %v, want +Inf", p)
	}
}

func TestOpenLoopScheduleIsSeeded(t *testing.T) {
	a := openLoop{rate: 4000, duration: time.Second, seed: 1}.schedule()
	b := openLoop{rate: 4000, duration: time.Second, seed: 1}.schedule()
	c := openLoop{rate: 4000, duration: time.Second, seed: 2}.schedule()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("different seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-4000) > 4*math.Sqrt(4000) {
		t.Errorf("%v arrivals in 1 s at 4000/s", n)
	}
}
