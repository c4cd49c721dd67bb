package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricName is the rule every printed metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return metricName.MatchString(name) }

// median returns the median of xs (mean of the middle pair for even
// lengths), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of xs (q in
// [0,100]), or 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentiles are the percentiles a tail may be reported at, in
// tenths of a percent, highest first.
var tailPercentiles = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile of tailPercentiles that
// leaves at least ten of n samples beyond it, or 0 when even the median
// does not.
func tailPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		if n*(1000-q)/1000 >= 10 {
			return float64(q) / 10
		}
	}
	return 0
}

// rung is one step of an offered-rate ladder: the offered rate and the
// latency at the reported percentile, with failed requests counted as
// missing the limit.
type rung struct {
	Rate     float64
	TailMS   float64
	OK       bool // every request succeeded and completions kept up
	Attempts int
}

func (r rung) passes(limitMS float64) bool { return r.OK && r.TailMS <= limitMS }

// kneeRate interpolates the offered rate at which the tail crosses
// limitMS: linearly between the last passing rung and the first failing
// one, so a small shift in the tail moves the result a little instead of
// flipping it a whole rung. A failing rung's tail is capped at capMS
// (the engine's default deadline, which a failed request is taken to
// have missed).
// ok is false when the first rung already fails; when no rung fails the
// top rung's rate is returned with ok true and censored true.
func kneeRate(rungs []rung, limitMS, capMS float64) (rate float64, ok, censored bool) {
	if len(rungs) == 0 || !rungs[0].passes(limitMS) {
		return 0, false, false
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].passes(limitMS) {
			continue
		}
		lo, hi := rungs[i-1], rungs[i]
		tail := hi.TailMS
		if !hi.OK || tail > capMS || math.IsNaN(tail) {
			tail = capMS
		}
		if tail <= lo.TailMS {
			return lo.Rate, true, false
		}
		frac := (limitMS - lo.TailMS) / (tail - lo.TailMS)
		return lo.Rate + frac*(hi.Rate-lo.Rate), true, false
	}
	return rungs[len(rungs)-1].Rate, true, true
}

// digest accumulates a SHA-256 over typed values; floats are hashed by
// their exact bits, so two digests agree only on bit-identical outputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digest) floats(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.f64(x)
	}
}
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
