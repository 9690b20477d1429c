package main

import (
	"fmt"
	"strings"
	"time"

	"sentry/internal/bench"
	"sentry/internal/check/explore"
)

// coverage is the recorded explored set of one tree seed: the coverage
// hash of its defended sweep on each platform at exploreBudget.
type coverage struct {
	seed int64
	hash map[string]uint64
}

// exploreTree is the tree the explore workload sweeps: tree seed 1, as
// `sentrybench -explore` sweeps it. Every run sweeps the same tree, so
// that runs do the same work and hold the same worlds; the workload seed
// picks the order of the platforms.
var exploreTree = coverage{seed: 1, hash: map[string]uint64{"tegra3": 0xada45e20ec6c6494, "nexus4": 0xc9de75d6b06e8ba2}}

// evalDigests lists the suite seeds the eval-suite workload runs, each with
// the digest of all its report text. The workload seed picks one.
var evalDigests = []struct {
	seed   int64
	digest string
}{
	{seed: 1, digest: "eeb5eb88e6a38f1314ba81a9e9028ef142e6dbd230df1db1cb03da50c79c2a72"},
	{seed: 2, digest: "f9201774069b241fc8ee5d82cde8a0fb06dd56f203a0703ec7fcb793bb21c08d"},
	{seed: 3, digest: "294d71950477e8a49ea2cfd2eb19d7cf73abdde14c6c879ab9c8797701fc93a1"},
}

// seedIndex maps a workload seed onto a list of n entries; seed 1 picks
// the first.
func seedIndex(seed int64, n int) int {
	return int(((seed-1)%int64(n) + int64(n)) % int64(n))
}

// record prints the expected values of a workload for tree or suite seeds
// 1..n, in the form of the entries above.
func record(workload string, n, workers int) error {
	switch workload {
	case "explore":
		for seed := int64(1); seed <= int64(n); seed++ {
			hashes, notes := "", ""
			for _, plat := range explorePlatforms {
				res := explore.Run(exploreConfig(plat, seed, exploreBudget, workers))
				hashes += fmt.Sprintf("%q: 0x%016x, ", plat, res.CoverageHash)
				notes += fmt.Sprintf(" %s %d schedules, %d violations;", plat, res.Schedules, res.Violations)
			}
			fmt.Printf("\t{seed: %d, hash: map[string]uint64{%s}}, //%s\n", seed, strings.TrimSuffix(hashes, ", "), notes)
		}
	case "eval-suite":
		for seed := int64(1); seed <= int64(n); seed++ {
			t0 := time.Now()
			results := bench.RunAll(seed, 1)
			fmt.Printf("\t{seed: %d, digest: %q}, // %v\n", seed, evalDigest(results), time.Since(t0).Round(time.Millisecond))
		}
	default:
		return fmt.Errorf("nothing to record for %q", workload)
	}
	return nil
}
