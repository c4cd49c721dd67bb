// Command perfbench is the repository's benchmark. It drives one
// workload through the library's public Go API, checks every output,
// and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1) as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"pass_cpu_s": {"value": 1.71, "unit": "s"}, ...}}
//
// Run it from the checkout root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// procs is the pinned GOMAXPROCS: every figure in README.md and
// BENCHMARK.json was taken at two Ps.
const procs = 2

// setupRepeats is how many times each workload builds its fixtures (and
// runs its discarded warm-up pass); setup_s is their median.
const setupRepeats = 3

// defaultSeed is the seed whose output digests are committed in
// digests.json.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workloads maps each workload to its set-up.
var workloads = map[string]func(seed uint64) (fixture, error){
	"pipeline":       preparePipeline,
	"fleet-hotshift": prepareFleet,
	"search":         prepareSearch,
	"serve-cold":     prepareServe,
}

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "", "workload: pipeline, fleet-hotshift, search or serve-cold")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 15, "how long the measured part of the run lasts")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	prepare, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *secs, trace: *trace == 1}
	res, values, err := runWorkload(prepare, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	printTable(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the user and system CPU time the process has used,
// in seconds. Time the hypervisor steals from the guest is not charged to
// the process, so it moves much less than wall time on a shared host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// releaseMemory returns the previous set-up's freed memory to the OS
// before the next one, outside any timed region. Set-ups repeat only to
// time them; without it peak_rss_mb depended on when the collector got
// round to the earlier set-ups' garbage.
func releaseMemory() { debug.FreeOSMemory() }

// okRatio is the share of attempted operations whose output passed its
// check.
func okRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}
