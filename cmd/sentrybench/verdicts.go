package main

import (
	"fmt"
	"strings"

	"sentry/internal/check"
	"sentry/internal/faults"
)

// verdictRow is one cell of a verdict matrix: the adversary half of a
// campaign config, the label printed for it, and the verdict each platform's
// campaign must reach.
type verdictRow struct {
	label      string
	cfg        check.Config      // adversary fields only; runMatrix fills in the rest
	wantClause map[string]string // per-platform expected clause ("" = clean)
}

// verdictMatrix is one adversary sweep: its rows, the prefix of every output
// line, and the two phrases that report a violation — unexpected in a cell
// that must stay clean, expected in a cell that must lose.
type verdictMatrix struct {
	prefix     string
	unexpected string
	expected   string
	rows       []verdictRow
}

// runMatrix sweeps a verdict matrix: a seeded campaign per (platform, row)
// cell with the same seed window everywhere, so defended cells demonstrably
// survive the exact schedules the undefended cells lose to. Output carries
// no wall times — the Makefile runs the sweep twice and diffs the bytes as a
// determinism check. Returns false if any cell misses its expected verdict
// or a repro fails to replay.
func runMatrix(m verdictMatrix, platforms string, seeds, steps int, startSeed int64, workers int) bool {
	okAll := true
	for _, plat := range strings.Split(platforms, ",") {
		for _, row := range m.rows {
			want, relevant := row.wantClause[plat]
			if !relevant {
				continue
			}
			cfg := row.cfg
			cfg.Platform = plat
			cfg.Defences = check.AllDefences()
			cfg.Faults = faults.None()
			cfg.Steps = steps
			res := check.CampaignParallel(cfg, startSeed, seeds, workers)
			cell := fmt.Sprintf("%s: %-7s %s %d seeds:", m.prefix, plat, row.label, seeds)
			switch {
			case len(res.IntegrityFailures) > 0:
				okAll = false
				fmt.Printf("%s INTEGRITY FAILURES (%d)\n", cell, len(res.IntegrityFailures))
			case want == "" && res.Repro == nil:
				fmt.Printf("%s defended (clean)\n", cell)
			case want == "" && res.Repro != nil:
				okAll = false
				fmt.Printf("%s %s (%d/%d seeds)\n  %s\n  repro: %s\n",
					cell, m.unexpected, res.ViolationSeeds, seeds, res.Repro.Violation, res.Repro)
			case res.Repro == nil:
				okAll = false
				fmt.Printf("%s BLIND — attacker recovered nothing (want clause %s)\n", cell, want)
			case res.Repro.Violation.Clause != want:
				okAll = false
				fmt.Printf("%s WRONG CLAUSE %s (want %s)\n  %s\n",
					cell, res.Repro.Violation.Clause, want, res.Repro)
			default:
				status := fmt.Sprintf("%s (%d/%d seeds, clause %s, %d -> %d ops)",
					m.expected, res.ViolationSeeds, seeds, want, res.Repro.OriginalLen, len(res.Repro.Ops))
				// The printed reproducer must replay to the same clause.
				if rr := check.Replay(res.Repro.Config, res.Repro.Seed, res.Repro.Ops); rr.Violation == nil ||
					rr.Violation.Clause != want {
					okAll = false
					status = "REPRO DOES NOT REPLAY"
				}
				fmt.Printf("%s %s\n  repro: %s\n", cell, status, res.Repro)
			}
		}
	}
	return okAll
}
