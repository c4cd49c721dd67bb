package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// call sends request i of a schedule and returns the reply's value and
// any error. The open loop calls it from one goroutine per request.
type call func(i int) (float64, error)

// openLoop is an open-loop load generator: requests are due on a seeded
// Poisson schedule whatever the target does, each is timed from when it
// was due, and none is dropped on the client side, so a stalled target
// shows as latency on every request due during the stall. Only the
// target may refuse a request.
type openLoop struct {
	rate     float64       // offered requests per second
	duration time.Duration // span of the schedule
	seed     uint64
}

// schedule returns the due offsets: exponential inter-arrival gaps at
// the offered rate, drawn from the seed, up to the loop's duration.
func (o openLoop) schedule() []time.Duration {
	rng := rand.New(rand.NewPCG(o.seed, 0x6f70656e6c6f6f70))
	var due []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / o.rate
		d := time.Duration(t * float64(time.Second))
		if d >= o.duration {
			return due
		}
		due = append(due, d)
	}
}

// loopResult holds one open-loop run, indexed by request.
type loopResult struct {
	rate    float64
	due     []time.Duration
	late    []time.Duration // sent − due: how far the generator fell behind
	latency []time.Duration // reply − due
	value   []float64
	err     []error
	// span is from the first due time to the last reply.
	span time.Duration
}

// run drives the target through the schedule and waits for every reply.
func (o openLoop) run(target call) loopResult {
	due := o.schedule()
	n := len(due)
	r := loopResult{
		rate: o.rate, due: due,
		late: make([]time.Duration, n), latency: make([]time.Duration, n),
		value: make([]float64, n), err: make([]error, n),
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		r.late[i] = time.Since(start) - d
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.value[i], r.err[i] = target(i)
			r.latency[i] = time.Since(start) - due[i]
		}(i)
	}
	wg.Wait()
	for i := range due {
		if end := due[i] + r.latency[i]; end > r.span {
			r.span = end
		}
	}
	if n > 0 {
		r.span -= due[0]
	}
	return r
}

// failed counts the requests the target refused or failed.
func (r loopResult) failed() int {
	n := 0
	for _, err := range r.err {
		if err != nil {
			n++
		}
	}
	return n
}

// latenciesMS returns every request's latency in milliseconds, with
// failed requests at +Inf: a refused request misses any latency limit.
func (r loopResult) latenciesMS() []float64 {
	out := make([]float64, len(r.latency))
	for i, l := range r.latency {
		out[i] = ms(l)
		if r.err[i] != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// lateMS returns the generator's lateness per request in milliseconds.
func (r loopResult) lateMS() []float64 {
	out := make([]float64, len(r.late))
	for i, l := range r.late {
		out[i] = ms(l)
	}
	return out
}

// keptUp reports whether replies kept pace with arrivals: the rate of
// replies over the loop's span is within 5% of the schedule's own rate.
func (r loopResult) keptUp() bool {
	n := len(r.due)
	if n < 2 || r.span <= 0 {
		return true
	}
	offered := float64(n-1) / (r.due[n-1] - r.due[0]).Seconds()
	achieved := float64(n) / r.span.Seconds()
	return achieved >= 0.95*offered
}
