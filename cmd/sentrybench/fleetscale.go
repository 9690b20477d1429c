package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sentry/internal/fleet"
	"sentry/internal/wallclock"
)

// Fixed geometry for the parked-footprint measurement: a capped fleet where
// most touched devices end up parked, with enough per-device divergence
// (touch + disk write) that the delta encoding has real work to do. The
// resulting byte counts are deterministic for a fixed seed, so `make scale`
// can diff two runs.
const (
	scaleLogical = 4096
	scaleTouched = 192
	scaleCap     = 32
)

// runFleetScale is the capacity-claim smoke behind `make scale`: it proves
// live resharding is behaviorally invisible (a reshard-interrupted soak
// reports byte-identically to the plain soak) and measures the resting
// bytes per delta-parked device. Every "scale:" line is deterministic for a
// fixed seed. The measured footprint is recorded to / guarded against the
// "scale" record of BENCH_wallclock.json.
func runFleetScale(devices, ops int, seed int64, wallOut, wallGuard string) bool {
	start := time.Now()
	cfg := fleet.SoakConfig{
		Devices: devices, OpsPerDevice: ops, Seed: seed, Faults: "benign",
		ResidentCap: nonZero(devices/4, 1), Shards: 4,
	}

	plain, ok := soakJSON(cfg, false)
	if !ok {
		return false
	}
	resharded, ok := soakJSON(cfg, true)
	if !ok {
		return false
	}
	if string(plain) != string(resharded) {
		fmt.Fprintln(os.Stderr, "sentrybench: resharding mid-soak changed the report")
		return false
	}
	fmt.Println("scale: reshard 4->8->16 mid-soak report byte-identical")

	perDevice, err := parkedBytesPerDevice(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return false
	}
	fmt.Printf("scale: parked footprint %d B/device\n", perDevice)

	run := &wallclock.Run{
		Parallelism: 1, TotalSec: time.Since(start).Seconds(), BytesPerDevice: perDevice,
	}
	if wallOut != "" {
		recordWallclock(wallOut, "scale", seed, run)
	}
	if wallGuard != "" {
		guardWallclock(wallGuard, wallclock.Bound{Kind: "scale", Field: wallclock.ParkedBytes,
			Limit: wallclock.Headroom}, run)
	}
	return true
}

// soakJSON runs the client-observed soak (fleet.SoakOn) against a fleet of
// fixed geometry and returns the indented JSON report. The two variants —
// a plain soak and one with two live reshards (4->8 once real traffic
// flows, then ->16) racing it — must report byte-identically; topology is
// a placement decision, never a behavioral one. The resident cap is fixed
// at 16 across variants: well under the device count (parks and hydrations
// happen mid-soak) while still admitting the 16-shard target.
func soakJSON(cfg fleet.SoakConfig, reshard bool) ([]byte, bool) {
	f := fleet.Open(cfg.Devices,
		fleet.WithSeed(cfg.Seed),
		fleet.WithShards(cfg.Shards),
		fleet.WithResidentCap(16),
	)
	done := make(chan error, 1)
	if reshard {
		go func() {
			for _, n := range []int{8, 16} {
				for f.Metrics().CounterValue(fleet.MetricExecs) < uint64(n*10) {
					time.Sleep(200 * time.Microsecond)
				}
				if err := f.Reshard(n); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	} else {
		done <- nil
	}
	rep, err := fleet.SoakOn(f, cfg)
	if rerr := <-done; err == nil {
		err = rerr
	}
	f.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return nil, false
	}
	if v := f.SweepConfidentiality(); len(v) != 0 {
		fmt.Fprintf(os.Stderr, "sentrybench: scale soak sweep violations: %v\n", v)
		return nil, false
	}
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "sentrybench: scale soak FAILED: %d problems, %d violations\n",
			len(rep.Problems), len(rep.Violations))
		return nil, false
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return nil, false
	}
	return out, true
}

// parkedBytesPerDevice opens the fixed measurement fleet, touches devices
// spread across the ID space until well past the resident cap, waits for
// every eviction's park to land, and reads the parked-bytes gauge.
func parkedBytesPerDevice(seed int64) (int64, error) {
	f := fleet.Open(scaleLogical,
		fleet.WithSeed(seed), fleet.WithShards(4), fleet.WithResidentCap(scaleCap))
	defer f.Stop()
	ctx := context.Background()
	for i := 0; i < scaleTouched; i++ {
		id := fleet.DeviceID(i * (scaleLogical / scaleTouched))
		if _, err := f.Do(ctx, id, fleet.Op{Code: fleet.OpTouch, Arg: uint64(i)}); err != nil {
			return 0, fmt.Errorf("touch %d: %w", id, err)
		}
		if _, err := f.Do(ctx, id, fleet.Op{Code: fleet.OpDiskWrite, Arg: uint64(i)}); err != nil {
			return 0, fmt.Errorf("disk write %d: %w", id, err)
		}
	}
	// Evictions free the seat before the victim's park lands; the byte total
	// is only complete (and deterministic) once every park has.
	const wantParks = scaleTouched - scaleCap
	deadline := time.Now().Add(10 * time.Second)
	for f.Metrics().CounterValue(fleet.MetricParks) < wantParks {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("timed out waiting for %d parks", wantParks)
		}
		time.Sleep(time.Millisecond)
	}
	return f.Metrics().GaugeValue(fleet.MetricParkedBytes) / wantParks, nil
}

func nonZero(n, fallback int) int {
	if n > 0 {
		return n
	}
	return fallback
}
