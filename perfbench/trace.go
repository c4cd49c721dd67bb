package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"stac/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string  `json:"name"`
	Pass   int     `json:"pass"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Obs is the program's obs movement inside the span, for the coarse
	// stage spans that record it (doObs).
	Obs *obsDelta `json:"obs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory for the run. A nil tracer records
// nothing, so untraced passes run the same code with no clock reads
// beyond the pass's own. begin/end nest spans on the goroutine that
// drives a pass; child/end record spans of concurrent requests under an
// explicit parent.
type tracer struct {
	t0   time.Time
	pass int

	mu    sync.Mutex
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := t.add(name, parent)
	t.open = append(t.open, id)
	return id
}

// current returns the innermost open span, or -1.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// child opens a span under parent without making it the innermost open
// span, for requests that run concurrently under one pass.
func (t *tracer) child(parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(name, parent)
}

func (t *tracer) add(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// doObs is do that also records the obs registry's movement inside the
// span. Snapshots cost tens of microseconds, so only stage-sized spans
// use it.
func (t *tracer) doObs(name string, f func() error) error {
	if t == nil {
		return f()
	}
	// The snapshots sit inside the span, so their cost is charged to the
	// stage rather than to its parent's residual.
	id := t.begin(name)
	before := readObs()
	err := f()
	d := readObs().since(before)
	t.end(id)
	t.mu.Lock()
	t.spans[id].Obs = &d
	t.mu.Unlock()
	return err
}

// stageTimes is one pass's duration and self time per span name, summed
// over the spans of that name.
type stageTimes struct{ total, self map[string]float64 }

// stages returns every pass's stage times. A span's self time is its
// duration less the union of its children's intervals (children may
// overlap one another).
func (t *tracer) stages() map[int]stageTimes {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]stageTimes{}
	for id, s := range t.spans {
		st, ok := out[s.Pass]
		if !ok {
			st = stageTimes{total: map[string]float64{}, self: map[string]float64{}}
			out[s.Pass] = st
		}
		st.total[s.Name] += s.dur()
		st.self[s.Name] += s.dur() - covered(children[id])
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, end float64
	end = math.Inf(-1)
	for _, s := range spans {
		start := math.Max(s.Start, end)
		if s.End > start {
			sum += s.End - start
		}
		end = math.Max(end, s.End)
	}
	return sum
}

// obsDelta is the movement of the program's own obs registry across one
// span: counters, span totals and histogram sums by name.
type obsDelta struct {
	Counters  map[string]float64 `json:"counters"`
	SpanSec   map[string]float64 `json:"span_seconds"`
	SpanCount map[string]float64 `json:"span_count"`
	HistSum   map[string]float64 `json:"hist_sum"`
	HistCount map[string]float64 `json:"hist_count"`
}

type obsState struct {
	counters, spanSec, spanCount, histSum, histCount map[string]float64
}

func readObs() obsState {
	snap := obs.TakeSnapshot()
	st := obsState{
		counters: map[string]float64{}, spanSec: map[string]float64{},
		spanCount: map[string]float64{}, histSum: map[string]float64{},
		histCount: map[string]float64{},
	}
	for _, c := range snap.Counters {
		st.counters[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		st.histSum[h.Name] = h.Sum
		st.histCount[h.Name] = float64(h.Count)
	}
	var walk func(ns []*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			st.spanSec[n.Path] = n.TotalSeconds
			st.spanCount[n.Path] = float64(n.Count)
			walk(n.Children)
		}
	}
	walk(snap.Spans)
	return st
}

func diffMaps(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func (a obsState) since(b obsState) obsDelta {
	return obsDelta{
		Counters:  diffMaps(a.counters, b.counters),
		SpanSec:   diffMaps(a.spanSec, b.spanSec),
		SpanCount: diffMaps(a.spanCount, b.spanCount),
		HistSum:   diffMaps(a.histSum, b.histSum),
		HistCount: diffMaps(a.histCount, b.histCount),
	}
}

// write saves the spans, with their obs deltas, as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
