package main

import (
	"fmt"

	"sentry/internal/check"
)

// attackMatrix is the per-profile leak matrix -attacks sweeps: a cache
// profile under a set of attackers per row. The insecure placement must
// lose to both timing attacks everywhere, every defended placement must win
// on the same seeds, and the occupancy probe must expose way-locking itself
// on platforms that lock ways (tegra3) while staying silent where sessions
// live in iRAM (nexus4).
func attackMatrix() verdictMatrix {
	row := func(cache, attacks string, want map[string]string) verdictRow {
		return verdictRow{
			label:      fmt.Sprintf("cache=%-10s vs %-25s", cache, attacks),
			cfg:        check.Config{Cache: cache, Attacks: attacks},
			wantClause: want,
		}
	}
	both := "prime-probe,evict-reload"
	return verdictMatrix{prefix: "attacks", unexpected: "LEAKED", expected: "leaks as expected", rows: []verdictRow{
		row(check.CacheInsecure, both, map[string]string{
			"tegra3": "cache-timing", "nexus4": "cache-timing"}),
		row(check.CacheBaseline, both, map[string]string{
			"tegra3": "", "nexus4": ""}),
		row(check.CacheAutoLock, both, map[string]string{
			"tegra3": "", "nexus4": ""}),
		row(check.CacheRandomized, both, map[string]string{
			"tegra3": "", "nexus4": ""}),
		row(check.CacheBaseline, check.AttackOccupancy, map[string]string{
			"tegra3": "occupancy", "nexus4": ""}),
		// The occupancy mitigation: session locks served from a constant
		// way budget reserved at boot never move the observable lock state.
		row(check.CacheReserved, check.AttackOccupancy, map[string]string{
			"tegra3": "", "nexus4": ""}),
	}}
}
