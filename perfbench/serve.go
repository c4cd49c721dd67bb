package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stac"
	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/serve"
	"stac/internal/stats"
)

// The serve-cold workload is the controller's path: an in-process
// serve.Engine with the default configuration answers cold
// effective-allocation requests (NoCache) from a deep forest trained on
// the pipeline workload's dataset.
const (
	// serveModelSeed fixes the served model: every run serves the forest
	// trained on the pipeline workload's dataset for this seed, and the
	// run's seed draws the request pool and the arrival schedules. Forests
	// trained on other seeds' datasets differ in size, which moved the
	// model's cost by up to a quarter between seeds.
	serveModelSeed = defaultSeed
	servePoolSize  = 128
	// serveLowRate is bound by the batcher's 2 ms flush timer: batches
	// hardly ever fill, so nearly every request waits out the timer.
	serveLowRate = 500.0
	// serveHighRate fills batches while staying clear of the knee, where
	// the tail stops repeating from run to run.
	serveHighRate = 2000.0
	// serveLimitMS is the tail-latency limit the rate ladder searches
	// against; serveDeadlineMS is the engine's default request deadline,
	// at which a failing rung's tail is capped.
	serveLimitMS    = 10.0
	serveDeadlineMS = 50.0
	// requestDeadlineMS is the deadline every request carries. At the
	// engine's default of 50 ms a request failed whenever the shared
	// host descheduled the guest for a few tens of milliseconds during a
	// burst, which measured the host, not the engine; a request that
	// misses this deadline still fails.
	requestDeadlineMS = 1000.0
	// The ladder climbs from the high rate in steps of ladderStep; the
	// low and high phases are its first two rungs.
	ladderStep  = 1.25
	ladderRungs = 12
	// minPhaseRequests is the fewest arrivals an open-loop phase is
	// sized for, so its p99 leaves at least ten samples beyond it.
	minPhaseRequests = 1200
	// closedWindow is the window the closed loop's reply rate is
	// sampled over.
	closedWindow = 250 * time.Millisecond
)

// Shares of --seconds given to each probe of the traced run, which runs
// after its bursts.
const (
	closedShare = 0.1
	lowShare    = 0.15
	highShare   = 0.1
	rungShare   = 0.05
)

var errCached = errors.New("reply came from the prediction cache")

type serveFixture struct {
	engine  *serve.Engine
	model   *deepforest.Model
	ds      stac.Dataset
	pool    []serve.PredictRequest
	ref     []float64 // the reference sweep's EA per pool entry
	trainS  float64   // seconds the forest took to train in set-up
	seed    uint64
	nextRNG uint64
}

// servePool draws the seeded request pool: loads and timeouts spanning
// the model's training envelope, alternating the two services.
func servePool(seed uint64, n int) []serve.PredictRequest {
	rng := rand.New(rand.NewPCG(seed, 0x706f6f6c))
	timeouts := []float64{0, 1, 2, 4, 8}
	services := []string{"redis", "bfs"}
	pool := make([]serve.PredictRequest, n)
	for i := range pool {
		pool[i] = serve.PredictRequest{
			Service:        services[i%len(services)],
			Load:           0.1 + 0.8*rng.Float64(),
			Timeout:        timeouts[rng.IntN(len(timeouts))],
			PartnerLoad:    0.8 * rng.Float64(),
			PartnerTimeout: timeouts[rng.IntN(len(timeouts))],
			NoCache:        true,
			DeadlineMS:     requestDeadlineMS,
		}
	}
	return pool
}

// prepareServe profiles the pipeline dataset, trains the forest, starts
// an engine with it, records the sequential reference replies and warms
// the engine up with bursts.
func prepareServe(seed uint64) (fixture, error) {
	ka, err := stac.WorkloadByName("redis")
	if err != nil {
		return fixture{}, err
	}
	kb, err := stac.WorkloadByName("bfs")
	if err != nil {
		return fixture{}, err
	}
	f := &serveFixture{pool: servePool(seed, servePoolSize), seed: seed}
	f.ds, err = stac.Profile(stac.ProfileOptions{KernelA: ka, KernelB: kb, Points: pipelinePoints, Seed: serveModelSeed})
	if err != nil {
		return fixture{}, err
	}
	t0 := time.Now()
	cfg := deepforest.FastConfig(core.MatrixSpec(f.ds.Schema))
	if f.model, err = core.TrainDeepForestEA(f.ds, cfg, stats.NewRNG(serveModelSeed+1)); err != nil {
		return fixture{}, err
	}
	f.trainS = time.Since(t0).Seconds()
	f.engine = serve.NewEngine(serve.Config{})
	if _, err := f.engine.Install(f.model, f.ds); err != nil {
		f.engine.Close()
		return fixture{}, err
	}
	// The reference replies come from one caller at a time, so every
	// batch holds a single row.
	f.ref = make([]float64, len(f.pool))
	for i := range f.pool {
		ea, err := f.predict(i)
		if err != nil {
			f.engine.Close()
			return fixture{}, fmt.Errorf("reference request %d: %w", i, err)
		}
		f.ref[i] = ea
	}
	for i := 0; i < 10; i++ {
		if _, err := f.burst(nil); err != nil {
			f.engine.Close()
			return fixture{}, err
		}
	}
	return fixture{pass: f.burst, layers: f.layers, close: f.engine.Close}, nil
}

// predict sends pool entry i%len(pool) and returns its EA; a reply from
// the cache is an error, since every request asks to bypass it.
func (f *serveFixture) predict(i int) (float64, error) {
	resp, err := f.engine.Predict(f.pool[i%len(f.pool)])
	if err != nil {
		return 0, err
	}
	if resp.Cached {
		return resp.EA, errCached
	}
	return resp.EA, nil
}

// openLoop runs one open-loop phase with a fresh schedule seed.
func (f *serveFixture) openLoop(rate float64, d time.Duration) loopResult {
	f.nextRNG++
	return openLoop{rate: rate, duration: d, seed: f.seed*1_000_003 + f.nextRNG}.run(f.predict)
}

// wrong counts the successful replies whose EA differs from the
// reference.
func (f *serveFixture) wrong(r loopResult) int {
	n := 0
	for i, v := range r.value {
		if r.err[i] == nil && v != f.ref[i%len(f.ref)] {
			n++
		}
	}
	return n
}

// sweep sends the pool once, one request at a time, and returns the
// seconds it took and the number of failed or wrong replies.
func (f *serveFixture) sweep() (float64, int) {
	bad := 0
	t0 := time.Now()
	for i := range f.pool {
		if ea, err := f.predict(i); err != nil || ea != f.ref[i] {
			bad++
		}
	}
	return time.Since(t0).Seconds(), bad
}

// burst is the workload's pass: it sends the whole pool at once, one
// goroutine per request, and waits for the last reply. Each request is a
// child span of a traced pass. The digest covers every reply's EA in pool
// order, so it equals the reference's when every reply does.
func (f *serveFixture) burst(tr *tracer) (passOut, error) {
	eas := make([]float64, len(f.pool))
	var bad atomic.Int64
	parent := tr.current()
	var wg sync.WaitGroup
	for i := range f.pool {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := tr.child(parent, "Engine.Predict")
			ea, err := f.predict(i)
			tr.end(id)
			eas[i] = ea
			if err != nil || ea != f.ref[i] {
				fmt.Printf("check: request %d: EA %v, want %v, error %v\n", i, ea, f.ref[i], err)
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	d := newDigest()
	d.floats(eas)
	return passOut{digest: d.sum(), work: float64(len(f.pool)), ops: len(f.pool), failed: int(bad.Load())}, nil
}

// closedLoop runs callers goroutines that each send pool entries back to
// back for d, and returns the reply rate of every whole window, the
// requests sent, and the failed or wrong replies.
func (f *serveFixture) closedLoop(callers int, d time.Duration) (rates []float64, attempted, bad int) {
	windows := int(d / closedWindow)
	counts := make([]atomic.Int64, windows+1)
	var sent, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * len(f.pool) / callers; time.Since(start) < d; i++ {
				sent.Add(1)
				ea, err := f.predict(i)
				if err != nil || ea != f.ref[i%len(f.ref)] {
					failed.Add(1)
				}
				if w := int(time.Since(start) / closedWindow); w < len(counts) {
					counts[w].Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	for w := 0; w < windows; w++ {
		rates = append(rates, float64(counts[w].Load())/closedWindow.Seconds())
	}
	return rates, int(sent.Load()), int(failed.Load())
}

// layers runs the traced run's serving probes after its bursts: closed
// loops, sequential sweeps, the open-loop rates and the rate ladder, then
// standalone build and predict timings.
func (f *serveFixture) layers(t *traceRun) error {
	tr, v := t.tr, t.v
	secs := func(share float64) time.Duration {
		return time.Duration(share * t.cfg.seconds * float64(time.Second))
	}
	count := func(attempted, bad int) {
		t.res.Attempted += attempted
		t.res.Failed += bad
	}

	// Sustained load: closed loops of one caller per batch slot (batches
	// fill) and of sixteen callers (the cold closed-loop setting of
	// `stac loadtest -nocache -workers 16`, bound by the batch timer).
	closedLoop := func(callers int) float64 {
		rates, attempted, bad := f.closedLoop(callers, secs(closedShare))
		count(attempted, bad)
		fmt.Printf("  closed loop, %d callers: %d requests, %d failed, median %.0f replies/s over %d windows (min %.0f, max %.0f)\n",
			callers, attempted, bad, median(rates), len(rates), percentile(rates, 0), percentile(rates, 100))
		return median(rates)
	}
	v["serve.closed64_per_s"] = closedLoop(64)
	v["serve.closed16_per_s"] = closedLoop(16)

	// One caller at a time, also bound by the batch timer.
	var sweeps []float64
	for i := 0; i < 2; i++ {
		sec, bad := f.sweep()
		count(len(f.pool), bad)
		sweeps = append(sweeps, sec)
	}
	v["serve.sequential_ms"] = median(sweeps) / float64(len(f.pool)) * 1e3

	// Open-loop phases at fixed rates, then the rate ladder above them.
	tr.pass = -1
	phase := func(name string, rate, share float64) (loopResult, *obsDelta) {
		var r loopResult
		// Long enough for the p99 to leave ten samples beyond it.
		d := max(secs(share), time.Duration(minPhaseRequests/rate*float64(time.Second)))
		_ = tr.doObs(name, func() error {
			r = f.openLoop(rate, d)
			return nil
		})
		return r, tr.spans[len(tr.spans)-1].Obs
	}
	low, lowObs := phase("open-loop.low", serveLowRate, lowShare)
	high, highObs := phase("open-loop.high", serveHighRate, highShare)
	for _, r := range []loopResult{low, high} {
		count(len(r.due), r.failed()+f.wrong(r))
	}
	printPhase("low", low)
	printPhase("high", high)
	rungs := []rung{rungOf(low), rungOf(high)}
	for k := 1; k <= ladderRungs && rungs[len(rungs)-1].passes(serveLimitMS); k++ {
		r, _ := phase(fmt.Sprintf("ladder.%d", k), serveHighRate*math.Pow(ladderStep, float64(k)), rungShare)
		// Rungs past the knee may shed by design; a wrong reply is
		// always a failure.
		if w := f.wrong(r); w > 0 {
			fmt.Printf("check: %d wrong replies on ladder rung %d\n", w, k)
			count(0, w)
		}
		rungs = append(rungs, rungOf(r))
	}
	for _, r := range rungs {
		fmt.Printf("  rung %8.0f/s: %5d requests, p%.4g %8.3f ms, ok %v\n",
			r.Rate, r.Attempts, tailPercentile(r.Attempts), r.TailMS, r.OK)
	}
	maxRate, _, censored := kneeRate(rungs, serveLimitMS, serveDeadlineMS)
	fmt.Printf("  max rate %.0f/s at the tail limit %.0f ms (censored at the top rung: %v)\n", maxRate, serveLimitMS, censored)
	v["serve.max_rate_per_s"] = maxRate

	lowLat, highLat := low.latenciesMS(), high.latenciesMS()
	v["serve.p50_ms.low"] = percentile(lowLat, 50)
	v["serve.p99_ms.low"] = percentile(lowLat, tailPercentile(len(lowLat)))
	v["serve.p50_ms.high"] = percentile(highLat, 50)
	v["serve.p99_ms.high"] = percentile(highLat, tailPercentile(len(highLat)))
	v["loadgen.late_p99_ms.low"] = percentile(low.lateMS(), tailPercentile(len(low.due)))
	v["loadgen.late_p99_ms.high"] = percentile(high.lateMS(), tailPercentile(len(high.due)))
	v["serve.timer_flush_ratio.low"] = lowObs.timerFlushRatio()
	v["serve.timer_flush_ratio.high"] = highObs.timerFlushRatio()
	v["serve.batch_size_mean.low"] = lowObs.batchMean()
	v["serve.batch_size_mean.high"] = highObs.batchMean()
	v["serve.shed"] = lowObs.shed() + highObs.shed()
	cached := 0
	for _, r := range []loopResult{low, high} {
		for _, err := range r.err {
			if errors.Is(err, errCached) {
				cached++
			}
		}
	}
	v["serve.cache_hit_ratio"] = float64(cached) / float64(len(low.due)+len(high.due))

	buildUS, err := f.buildUSPerRow()
	if err != nil {
		return err
	}
	v["core.build_us_per_row"] = buildUS
	v["deepforest.predict_us_per_row"] = f.predictUSPerRow(int(math.Round(v["serve.batch_size_mean.high"])))
	// The low rate's wait: its median latency less the work on a
	// request's path, building its own row and predicting a batch of the
	// mean low-rate size.
	bLow := max(int(math.Round(v["serve.batch_size_mean.low"])), 1)
	v["serve.wait_ms.low"] = v["serve.p50_ms.low"] - (buildUS+float64(bLow)*f.predictUSPerRow(bLow))/1000
	v["deepforest.train_s"] = f.trainS
	return nil
}

// rungOf summarises an open-loop phase as a ladder rung.
func rungOf(r loopResult) rung {
	lat := r.latenciesMS()
	return rung{
		Rate:     r.rate,
		TailMS:   percentile(lat, tailPercentile(len(lat))),
		OK:       r.failed() == 0 && r.keptUp(),
		Attempts: len(lat),
	}
}

func printPhase(name string, r loopResult) {
	lat := r.latenciesMS()
	q := tailPercentile(len(lat))
	fmt.Printf("  %s %.0f/s: %d requests, %d failed, p50 %.3f ms, p%.4g %.3f ms, generator late p%.4g %.3f ms\n",
		name, r.rate, len(lat), r.failed(), percentile(lat, 50), q, percentile(lat, q), q, percentile(r.lateMS(), q))
}

func (d *obsDelta) timerFlushRatio() float64 {
	full, delay := d.Counters["serve/batch/flush_full"], d.Counters["serve/batch/flush_delay"]
	if full+delay == 0 {
		return 0
	}
	return delay / (full + delay)
}

func (d *obsDelta) batchMean() float64 {
	return perUnit(d.HistSum["serve/batch/size"], d.HistCount["serve/batch/size"], 1)
}

func (d *obsDelta) shed() float64 {
	var n float64
	for name, c := range d.Counters {
		if strings.HasPrefix(name, "serve/shed/") {
			n += c
		}
	}
	return n
}

// buildUSPerRow times core.InputBuilder.Build standalone over the pool's
// scenarios, as the engine fills them, in microseconds per row.
func (f *serveFixture) buildUSPerRow() (float64, error) {
	b, err := core.NewInputBuilder(f.ds)
	if err != nil {
		return 0, err
	}
	v := f.engine.Registry().Acquire()
	if v == nil {
		return 0, fmt.Errorf("no model version installed")
	}
	defer v.Release()
	scens := make([]core.Scenario, len(f.pool))
	for i, req := range f.pool {
		s, ok := v.Template(req.Service)
		if !ok {
			return 0, fmt.Errorf("no template for %s", req.Service)
		}
		s.Load, s.Timeout = req.Load, req.Timeout
		s.PartnerLoad, s.PartnerTimeout = req.PartnerLoad, req.PartnerTimeout
		scens[i] = s
	}
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range scens {
			if _, err := b.Build(s); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(reps*len(scens)), nil
}

// predictUSPerRow times deepforest.Model.PredictBatch standalone on
// batches of the given size, in microseconds per row.
func (f *serveFixture) predictUSPerRow(batch int) float64 {
	batch = min(max(batch, 1), len(f.ds.Rows))
	rows := f.ds.Features()[:batch]
	const minRows = 2000
	reps := (minRows + batch - 1) / batch
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		f.model.PredictBatch(rows)
	}
	return float64(time.Since(t0).Microseconds()) / float64(reps*batch)
}
