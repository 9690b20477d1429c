package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"sentry"
	"sentry/internal/bench"
)

// evalSetup boots both platforms and runs the cheapest experiment: the
// suite has no shared set-up, so this is the least work before a first
// result, and it warms the process's heap before anything is timed.
func evalSetup(seed int64) error {
	for _, p := range []sentry.Platform{sentry.Tegra3, sentry.Nexus4} {
		if _, err := sentry.Open(p, "4321", sentry.WithSeed(seed)); err != nil {
			return fmt.Errorf("boot %v: %w", p, err)
		}
	}
	e, ok := bench.ByID("table4")
	if !ok {
		return fmt.Errorf("no experiment table4")
	}
	_, err := e.Run(seed)
	return err
}

// evalDigest fingerprints every report's text and error, in suite order.
// The simulator is deterministic, so it depends only on the seed: any
// change that only makes the host faster must leave it unchanged.
func evalDigest(results []bench.Result) string {
	h := sha256.New()
	for _, res := range results {
		fmt.Fprintf(h, "%s\n", res.Exp.ID)
		if res.Report != nil {
			fmt.Fprint(h, res.Report.String())
		}
		if res.Err != nil {
			fmt.Fprintf(h, "error: %v\n", res.Err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evalProblems checks one pass: no experiment failed, and the digest of
// all report text equals the one recorded for the seed.
func evalProblems(seed int64, results []bench.Result, want string) []string {
	var problems []string
	for _, res := range results {
		if res.Err != nil {
			problems = append(problems, fmt.Sprintf("eval seed %d: %s: %v", seed, res.Exp.ID, res.Err))
		}
	}
	if got := evalDigest(results); got != want {
		problems = append(problems, fmt.Sprintf("eval seed %d: report digest %s, recorded %s", seed, got, want))
	}
	return problems
}

// evalPasses times the set-up (see timeSetups), then runs the suite serially
// (bench.RunAll(seed, 1)) until -seconds have been measured, at least
// once, and returns what the passes spent; the first pass is the first
// unit of work. Every pass must reproduce the recorded digest and no
// experiment may fail.
func evalPasses(r *run) ([][]bench.Result, []time.Duration, []float64, measured, error) {
	idx := seedIndex(r.seed, len(evalDigests))
	seed, want := evalDigests[idx].seed, evalDigests[idx].digest
	_, setups, err := timeSetups(func() (func(), error) { return func() {}, evalSetup(seed) })
	if err != nil {
		return nil, nil, nil, measured{}, err
	}
	releaseHeap()
	var (
		passes [][]bench.Result
		walls  []time.Duration
		total  time.Duration
	)
	m := measured{start: readUsage()}
	for total.Seconds() < r.seconds {
		t0 := time.Now()
		results := bench.RunAll(seed, 1)
		wall := time.Since(t0)
		total += wall
		if len(passes) == 0 {
			if err := m.markFirst(); err != nil {
				return nil, nil, nil, measured{}, err
			}
		}
		passes, walls = append(passes, results), append(walls, wall)
		probs := evalProblems(seed, results, want)
		for _, p := range probs {
			r.fail("%s", p)
		}
		failed := min(len(probs), len(results))
		r.count(len(results), failed)
		fmt.Printf("pass seed=%d: %d experiments in %v\n", seed, len(results), wall.Round(time.Millisecond))
	}
	m.end = readUsage()
	return passes, walls, setups, m, nil
}

func evalE2E(r *run) error {
	passes, walls, setups, m, err := evalPasses(r)
	if err != nil {
		return err
	}
	var secs, perExp []float64
	n := 0
	for i, w := range walls {
		secs = append(secs, w.Seconds())
		perExp = append(perExp, float64(w)/float64(time.Millisecond)/float64(len(passes[i])))
		n += len(passes[i])
	}
	r.set("setup_s", "s", median(setups), len(setups))
	r.setCosts(m, len(passes[0]), n)
	fmt.Printf("detail %-34s %14.4f s      (n=%d)\n", "eval_s", median(secs), len(secs))
	fmt.Printf("detail %-34s %14.4f 1/s    (n=%d)\n", "experiments_per_s", float64(len(passes[0]))/median(secs), len(secs))
	fmt.Printf("detail %-34s %14.4f ms     (n=%d)\n", "ms_per_experiment", median(perExp), len(perExp))
	return nil
}

// evalTraced reports each slow experiment's wall time, then the probes.
func evalTraced(r *run) error {
	passes, _, _, _, err := evalPasses(r)
	if err != nil {
		return err
	}
	walls := map[string][]float64{}
	for _, results := range passes {
		for _, res := range results {
			walls[res.Exp.ID] = append(walls[res.Exp.ID], res.Wall.Seconds())
		}
	}
	for _, id := range evalLayers {
		r.set("eval."+id+"_s", "s", median(walls[id]), len(walls[id]))
	}
	return runProbes(r)
}
