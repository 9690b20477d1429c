package main

import (
	"fmt"
	"time"

	"sentry/internal/check"
	"sentry/internal/check/explore"
	"sentry/internal/faults"
)

// The explore workload is `sentrybench -explore`'s defended sweep: every
// defence on, no faults, no positive controls, DefaultDepth.
const (
	exploreBudget = 100000
	// exploreWarmBudget sizes the set-up sweep that boots each platform's
	// root world and warms the explorer's pools before anything is timed.
	exploreWarmBudget = 500
	// exploreWorkers is the explorer's worker count: the process runs on
	// one P (see procs), so more workers would only take turns on it.
	exploreWorkers = 1
)

var explorePlatforms = []string{"tegra3", "nexus4"}

func exploreConfig(plat string, treeSeed int64, budget, workers int) explore.Config {
	return explore.Config{
		Check:   check.Config{Platform: plat, Defences: check.AllDefences(), Faults: faults.None()},
		Seed:    treeSeed,
		Budget:  budget,
		Workers: workers,
	}
}

// sweep is one platform's explored tree.
type sweep struct {
	plat string
	seed int64
	res  *explore.Result
}

// exploreSweeps times the set-up (see timeSetups), then sweeps the recorded
// tree on both platforms, in an order the workload seed picks, until
// -seconds have been measured, and returns what the sweeps spent; the first
// sweep on every platform is the first unit of work. Every sweep must be
// clean and reproduce its recorded coverage hash.
func exploreSweeps(r *run) ([]sweep, []float64, measured, error) {
	_, setups, err := timeSetups(func() (func(), error) {
		for _, plat := range explorePlatforms {
			explore.Run(exploreConfig(plat, 1, exploreWarmBudget, exploreWorkers))
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, nil, measured{}, err
	}
	releaseHeap()
	var (
		out     []sweep
		elapsed time.Duration
	)
	want := exploreTree
	first := seedIndex(r.seed, len(explorePlatforms))
	m := measured{start: readUsage()}
	for elapsed.Seconds() < r.seconds {
		for i := range explorePlatforms {
			plat := explorePlatforms[(first+i)%len(explorePlatforms)]
			res := explore.Run(exploreConfig(plat, want.seed, exploreBudget, exploreWorkers))
			elapsed += res.Elapsed
			out = append(out, sweep{plat: plat, seed: want.seed, res: res})
			probs := exploreProblems(plat, res, want)
			for _, p := range probs {
				r.fail("%s", p)
			}
			r.count(1, min(len(probs), 1))
			fmt.Printf("sweep %-7s seed=%d: %d schedules in %v, coverage %016x, %d violations\n",
				plat, want.seed, res.Schedules, res.Elapsed.Round(time.Millisecond), res.CoverageHash, res.Violations)
		}
		if len(out) == len(explorePlatforms) {
			if err := m.markFirst(); err != nil {
				return nil, nil, measured{}, err
			}
		}
	}
	m.end = readUsage()
	return out, setups, m, nil
}

// exploreProblems checks one sweep: a clean verdict and the coverage hash
// recorded for (platform, seed, budget).
func exploreProblems(plat string, res *explore.Result, want coverage) []string {
	var problems []string
	if res.Violations > 0 {
		problems = append(problems, fmt.Sprintf("explore %s seed %d: %d violations in a defended sweep", plat, want.seed, res.Violations))
	}
	if got, ok := want.hash[plat]; !ok || got != res.CoverageHash {
		problems = append(problems, fmt.Sprintf("explore %s seed %d budget %d: coverage %016x, recorded %016x",
			plat, want.seed, exploreBudget, res.CoverageHash, want.hash[plat]))
	}
	return problems
}

func exploreE2E(r *run) error {
	sweeps, setups, m, err := exploreSweeps(r)
	if err != nil {
		return err
	}
	// A tree is swept on every platform in turn; the per-schedule time of
	// each tree (all platforms together) keeps the platform mix fixed.
	var (
		schedules uint64
		elapsed   time.Duration
		perSched  []float64
	)
	for i := 0; i < len(sweeps); i += len(explorePlatforms) {
		var n uint64
		var el time.Duration
		for _, s := range sweeps[i : i+len(explorePlatforms)] {
			n += s.res.Schedules
			el += s.res.Elapsed
		}
		schedules += n
		elapsed += el
		perSched = append(perSched, float64(el)/float64(time.Millisecond)/float64(n))
	}
	var first uint64
	for _, s := range sweeps[:len(explorePlatforms)] {
		first += s.res.Schedules
	}
	r.set("setup_s", "s", median(setups), len(setups))
	r.setCosts(m, int(first), int(schedules))
	fmt.Printf("detail %-34s %14.4f 1/s    (n=%d)\n", "sched_per_s", float64(schedules)/elapsed.Seconds(), schedules)
	fmt.Printf("detail %-34s %14.4f ms     (n=%d trees)\n", "ms_per_schedule", median(perSched), len(perSched))
	return nil
}

// exploreTraced reports the explorer's own counters over the same sweeps,
// then the probes.
func exploreTraced(r *run) error {
	sweeps, _, _, err := exploreSweeps(r)
	if err != nil {
		return err
	}
	var sched, ops, hits, handoffs, replays, replayed, evictions uint64
	peak := 0
	for _, s := range sweeps {
		sched += s.res.Schedules
		ops += s.res.OpsExecuted
		hits += s.res.SnapshotHits
		handoffs += s.res.HandOffs
		replays += s.res.Replays
		replayed += s.res.ReplayedOps
		evictions += s.res.Evictions
		peak = max(peak, s.res.PeakResident)
	}
	r.set("explore.ops_per_schedule", "ratio", float64(ops)/float64(sched), int(sched))
	r.set("explore.snapshot_hit_frac", "ratio", frac(hits, hits+replays), int(hits+replays))
	r.set("explore.handoff_frac", "ratio", frac(handoffs, hits), int(hits))
	r.set("explore.replayed_ops", "count", float64(replayed), 0)
	r.set("explore.evictions", "count", float64(evictions), 0)
	r.set("explore.peak_resident", "count", float64(peak), 0)
	return runProbes(r)
}

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
