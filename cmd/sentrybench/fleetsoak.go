package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sentry/internal/fleet"
)

// runFleetSoak drives the fleet chaos soak and emits the JSON report on
// stdout. Returns false (non-zero exit) if any soak assertion failed: lost
// or duplicated ops, confidentiality violations, unbounded retry
// amplification, or an untraceable quarantine.
func runFleetSoak(devices, ops int, seed int64, profile string) bool {
	rep, err := fleet.RunSoak(fleet.SoakConfig{
		Devices: devices, OpsPerDevice: ops, Seed: seed, Faults: profile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return false
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return false
	}
	fmt.Println(string(out))
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "sentrybench: fleet soak FAILED: %d problems, %d violations\n",
			len(rep.Problems), len(rep.Violations))
		return false
	}
	return true
}
