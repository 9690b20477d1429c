package main

import (
	"fmt"

	"sentry/internal/check"
)

// dfaMatrix is the fault-attack verdict matrix -dfa sweeps: a victim
// placement under a countermeasure per row. The undefended DRAM-placed
// victim must lose its full AES-128 key to differential fault analysis on
// both platforms, while the paper's iRAM placement (arena out of the glitch
// rig's reach) and both fault-detecting countermeasures
// (recompute-and-compare, truncated integrity tag) must win on the exact
// same seeds.
func dfaMatrix() verdictMatrix {
	row := func(placement, counter string, want map[string]string) verdictRow {
		return verdictRow{
			label:      fmt.Sprintf("dfa=%-5s counter=%-10s", placement, counter),
			cfg:        check.Config{DFA: placement, Counter: counter},
			wantClause: want,
		}
	}
	return verdictMatrix{prefix: "dfa", unexpected: "KEY RECOVERED", expected: "key recovered as expected", rows: []verdictRow{
		row(check.DFAInDRAM, "none", map[string]string{
			"tegra3": "dfa-key-recovery", "nexus4": "dfa-key-recovery"}),
		row(check.DFAInIRAM, "none", map[string]string{
			"tegra3": "", "nexus4": ""}),
		row(check.DFAInDRAM, "redundant", map[string]string{
			"tegra3": "", "nexus4": ""}),
		row(check.DFAInDRAM, "tag", map[string]string{
			"tegra3": "", "nexus4": ""}),
	}}
}
