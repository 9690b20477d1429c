// Package wallclock reads, updates, and guards BENCH_wallclock.json — the
// repo's recorded wall-clock trajectory. Records are keyed by run kind
// ("serial", "parallel", "check", "serve"); each tool records its own kind
// and the CI guards compare fresh runs against the checked-in record with a
// fixed headroom, so a real regression fails loudly while normal host noise
// passes.
package wallclock

import (
	"encoding/json"
	"fmt"
	"os"
)

// File is the schema of BENCH_wallclock.json.
type File struct {
	Seed    int64           `json:"seed"`
	Records map[string]*Run `json:"records"`
}

// Run is one recorded run. TotalSec is the wall clock; OpsPerSec is set by
// throughput kinds ("serve", "explore"); Experiments is the per-experiment
// breakdown of -exp all runs; BytesPerDevice is set by the memory kind
// ("scale") — the resting cost of a delta-parked device.
type Run struct {
	Parallelism    int                `json:"parallelism"`
	TotalSec       float64            `json:"total_seconds"`
	OpsPerSec      float64            `json:"ops_per_sec,omitempty"`
	Experiments    map[string]float64 `json:"experiments,omitempty"`
	BytesPerDevice int64              `json:"bytes_per_device,omitempty"`
}

// Headroom is how much worse than the checked-in record a run may be before
// a guard fails: wall clocks are noisy; 25% is regression, not noise.
const Headroom = 1.25

// Record merges one run into the JSON record file, preserving the other
// kinds already recorded there (read-modify-write).
func Record(path, kind string, seed int64, run *Run) error {
	wc := File{Seed: seed, Records: map[string]*Run{}}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &wc); err != nil || wc.Records == nil {
			wc = File{Seed: seed, Records: map[string]*Run{}}
		}
	}
	wc.Seed = seed
	wc.Records[kind] = run
	buf, err := json.MarshalIndent(wc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func load(path, kind string) (*Run, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wc File
	if err := json.Unmarshal(buf, &wc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	rec := wc.Records[kind]
	if rec == nil {
		return nil, fmt.Errorf("%s has no %q record", path, kind)
	}
	return rec, nil
}

// Field is the Run measurement a guard reads.
type Field struct {
	Name   string // as printed, e.g. "ops/sec"
	format string // printf verb and unit for one value
	get    func(*Run) float64
}

// The guarded fields.
var (
	Total       = Field{"total", "%.2fs", func(r *Run) float64 { return r.TotalSec }}
	Throughput  = Field{"ops/sec", "%.0f ops/s", func(r *Run) float64 { return r.OpsPerSec }}
	ParkedBytes = Field{"parked footprint", "%.0f B/device", func(r *Run) float64 { return float64(r.BytesPerDevice) }}
)

// Bound is one guard row: a fresh run's Field may not exceed (or, with
// Floor, fall below) Limit times the same field of the recorded Kind. Wall
// clock and memory bounds are ceilings at Headroom; throughput bounds are
// floors at 1/Headroom; the explorer's speedup bound is a floor at 10x the
// recorded seed-replay baseline, so the speedup claim cannot silently rot
// while the absolute floor is still met.
type Bound struct {
	Kind  string
	Field Field
	Floor bool
	Limit float64
}

// Guard fails (returns an error) if run breaks bound b against the record
// in path. On success it returns a one-line summary.
func Guard(path string, b Bound, run *Run) (string, error) {
	rec, err := load(path, b.Kind)
	if err != nil {
		return "", err
	}
	want := b.Field.get(rec)
	if want <= 0 {
		return "", fmt.Errorf("%s record in %s has no %s", b.Kind, path, b.Field.Name)
	}
	got, limit := b.Field.get(run), want*b.Limit
	side, broken := "ceiling", got > limit
	if b.Floor {
		side, broken = "floor", got < limit
	}
	f := b.Field.format
	msg := fmt.Sprintf("%s "+f+" against %s "+f+" (recorded %s "+f+" x %.2f)",
		b.Field.Name, got, side, limit, b.Kind, want, b.Limit)
	if broken {
		return "", fmt.Errorf("%s — regression", msg)
	}
	return msg, nil
}
