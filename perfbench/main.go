// Command perfbench is the repository's benchmark: one entry point that runs
// a named workload against the simulator, checks its outputs, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload serve-churn -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of the workload; with
// -trace 1 it reports the per-layer table, from a separate run that times
// the benchmark's own calls into each layer. README.md gives the workloads
// and what each layer metric should move. run.sh builds the binaries and
// is the way to run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rates are the fixed open-loop offered rates of the serve workloads'
	// latency phase, ops/s.
	rates map[string]float64
	// conns is how many connections (one worker goroutine each) drive a
	// serve workload: NumCPU.
	conns int

	res      result
	problems []string
}

// set records a metric; the printed line gives its value and sample count.
func (r *run) set(name, unit string, v float64, samples int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		fmt.Printf("metric %-34s %14.4f %-6s (n=%d)\n", name, v, unit, samples)
	} else {
		fmt.Printf("metric %-34s %14.4f %s\n", name, v, unit)
	}
}

// fail records a failed correctness check; the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Println("FAIL:", msg)
}

// count adds ops to the attempted and failed totals.
func (r *run) count(attempted, failed int) {
	r.res.Attempted += int64(attempted)
	r.res.Failed += int64(failed)
}

// workloads maps a workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	e2e, traced func(*run) error
}{
	"serve-churn":    {serveE2E, serveTraced},
	"serve-resident": {serveE2E, serveTraced},
	"explore":        {exploreE2E, exploreTraced},
	"eval-suite":     {evalE2E, evalTraced},
}

// procs is this process's GOMAXPROCS. Every workload runs on one P: its
// work, the serve load and the garbage collector share one core and never
// wait on each other across cores, and its CPU time per unit of work, the
// end-to-end result, is not inflated by idle Ps spinning for work.
const procs = 1

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve-churn, serve-resident, explore or eval-suite")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured duration of the run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		churn    = flag.Float64("churn-rate", 0, "fixed offered rate of serve-churn's latency phase, ops/s")
		resident = flag.Float64("resident-rate", 0, "fixed offered rate of serve-resident's latency phase, ops/s")
		rec      = flag.Int("record", 0, "print the expected values of the workload for seeds 1..n and exit")
	)
	flag.Parse()
	if *rec > 0 {
		if err := record(*workload, *rec, runtime.NumCPU()); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(procs)
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rates: map[string]float64{"serve-churn": *churn, "serve-resident": *resident},
		conns: runtime.NumCPU(),
		res:   result{Metrics: map[string]metric{}},
	}
	printHost(r)
	fn := w.e2e
	if r.trace {
		fn = w.traced
	}
	if err := fn(r); err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	if err := r.finish(); err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	r.res.Correct = len(r.problems) == 0 && r.res.Failed == 0 && r.res.Attempted > 0
	out, err := json.Marshal(r.res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// printHost prints the host metadata every result carries, so that two
// records are compared only when they come from like hosts.
func printHost(r *run) {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	meta := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"loadavg":    load,
		"conns":      r.conns,
		"start":      time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(meta)
	fmt.Println("host:", string(b))
}

const (
	// setupRepeats and setupMinSpent bound how often a run sets up: at
	// least setupRepeats times and until setupMinSpent has gone by, so that
	// even a set-up of a few milliseconds is the median of enough samples.
	setupRepeats  = 5
	setupMinSpent = time.Second
)

// timeSetups times setup repeatedly and returns the durations, in seconds.
// Every set-up but the last is released; the last is the one the run
// measures, and its release is returned to the caller.
func timeSetups(setup func() (release func(), err error)) (func(), []float64, error) {
	var (
		times []float64
		spent time.Duration
	)
	for {
		t0 := time.Now()
		release, err := setup()
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		times, spent = append(times, d.Seconds()), spent+d
		if len(times) >= setupRepeats && spent >= setupMinSpent {
			return release, times, nil
		}
		release()
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
