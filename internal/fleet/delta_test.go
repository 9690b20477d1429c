package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"sentry/internal/blockdev"
	"sentry/internal/check"
)

// Delta-encoded parking. The byte-level soundness proof (delta park ≡ full
// park over the whole op alphabet) lives in internal/check/delta_test.go;
// these tests cover the fleet wiring: the parked-bytes gauge, the ≥5×
// footprint reduction the 10^6-device claim rests on, and report identity
// between the two encodings under a real soak.

// withFullPark parks evicted devices whole, charging the dense footprint:
// the reference the delta encoding is measured against.
func withFullPark(o *Options) {
	o.testPark = func(d *device) int64 {
		return d.w.S.FootprintBytes() + d.looseBytes()
	}
}

// waitParks polls until at least n parks have landed. Eviction hands the
// seat over before the victim's actor finishes draining, so tests that read
// park-side state (the gauge, a parked snapshot) wait on the counter first.
func waitParks(t *testing.T, f *Fleet, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Metrics().CounterValue(MetricParks) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parks", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// measureParkedBytes opens a capped fleet, touches enough devices that most
// park, and returns (bytes per parked device, parked count).
func measureParkedBytes(t *testing.T, fullPark bool) (int64, int) {
	t.Helper()
	opts := []Option{WithSeed(11), WithShards(4), WithResidentCap(32)}
	if fullPark {
		opts = append(opts, withFullPark)
	}
	f := Open(4096, opts...)
	defer f.Stop()
	ctx := context.Background()
	const touched = 192
	for i := 0; i < touched; i++ {
		id := DeviceID(i * 16)
		if _, err := f.Do(ctx, id, Op{Code: OpTouch, Arg: uint64(i)}); err != nil {
			t.Fatalf("touch %d: %v", id, err)
		}
		// Divergence beyond the boot image: a written disk sector.
		if _, err := f.Do(ctx, id, Op{Code: OpDiskWrite, Arg: uint64(i)}); err != nil {
			t.Fatalf("disk write %d: %v", id, err)
		}
	}
	h, err := f.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parked := h.Touched - h.Resident
	if parked <= 0 {
		t.Fatalf("nothing parked (touched %d, resident %d)", h.Touched, h.Resident)
	}
	bytes := f.Metrics().GaugeValue(MetricParkedBytes)
	if bytes <= 0 {
		t.Fatalf("parked-bytes gauge = %d with %d parked devices", bytes, parked)
	}
	return bytes / int64(parked), parked
}

// TestDeltaParkingShrinksParkedBytes is the fleet-level memory claim: a
// delta-parked device rests at least 5x below a full-parked one, measured by
// the parked-bytes gauge over identical traffic.
func TestDeltaParkingShrinksParkedBytes(t *testing.T) {
	deltaPer, deltaParked := measureParkedBytes(t, false)
	fullPer, fullParked := measureParkedBytes(t, true)
	if deltaParked != fullParked {
		t.Fatalf("parked counts diverged: delta %d, full %d", deltaParked, fullParked)
	}
	if fullPer < 5*deltaPer {
		t.Fatalf("delta parking reduction < 5x: full %d B/device, delta %d B/device",
			fullPer, deltaPer)
	}
	t.Logf("parked footprint: full %d B/device, delta %d B/device (%.1fx)",
		fullPer, deltaPer, float64(fullPer)/float64(deltaPer))
}

// TestDeltaParkSoakIdentical runs the same capped chaos soak with delta and
// full parking: the reports — every ledger digest, retry count, and failure
// class — must be byte-identical. Park encoding is a memory decision, never
// a behavioral one.
func TestDeltaParkSoakIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak comparison skipped in -short")
	}
	cfg := SoakConfig{
		Devices:      16,
		OpsPerDevice: 30,
		Seed:         7,
		Faults:       "benign",
		ResidentCap:  6, // far under Devices: parks and hydrations mid-soak
		Shards:       4,
	}
	delta, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := runSoak(cfg, withFullPark)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Passed() {
		t.Fatalf("delta soak failed: %v / %v", delta.Problems, delta.Violations)
	}
	dj, _ := json.MarshalIndent(delta, "", " ")
	fj, _ := json.MarshalIndent(full, "", " ")
	if string(dj) != string(fj) {
		t.Fatalf("delta vs full park reports diverged:\ndelta: %s\nfull: %s", dj, fj)
	}
}

// TestParkedBytesGaugeLifecycle: the gauge rises when a live device parks,
// holds while it is parked, replaces (not double-counts) on re-park, and
// counts parked devices only: a hydrated device drops its parked record.
func TestParkedBytesGaugeLifecycle(t *testing.T) {
	f := Open(64, WithSeed(3), WithShards(1), WithResidentCap(1))
	defer f.Stop()
	ctx := context.Background()

	if _, err := f.Do(ctx, 0, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	if b := f.Metrics().GaugeValue(MetricParkedBytes); b != 0 {
		t.Fatalf("parked bytes = %d with nothing parked", b)
	}
	// Touching a second device evicts the first into a delta park.
	if _, err := f.Do(ctx, 1, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f, 1)
	b1 := f.Metrics().GaugeValue(MetricParkedBytes)
	if b1 <= 0 {
		t.Fatalf("parked bytes = %d after an eviction", b1)
	}
	// Bounce device 0 back in (parks 1) and out (re-parks 0): the gauge
	// tracks two parked-device records, then settles near its prior level
	// as re-parks replace earlier records rather than accumulate.
	if _, err := f.Do(ctx, 0, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Do(ctx, 1, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f, 3)
	// Three parks happened but only two records exist; an accumulating
	// gauge would sit near 3x the first park.
	b2 := f.Metrics().GaugeValue(MetricParkedBytes)
	if b2 <= 0 || b2 > 5*b1/2 {
		t.Fatalf("parked bytes after re-park cycles = %d (first park %d): gauge accumulates", b2, b1)
	}
	// Device 0 is parked and device 1 resident: the gauge is device 0's
	// record alone, and device 1 holds no record of its last park.
	record := func(id DeviceID) (*device, int64) {
		sh, sl := f.peek(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sl.parked, sl.parkedBytes
	}
	p0, pb0 := record(0)
	p1, pb1 := record(1)
	if p0 == nil || pb0 <= 0 {
		t.Fatalf("parked device 0 has record %v, %d bytes", p0 != nil, pb0)
	}
	if p1 != nil || pb1 != 0 {
		t.Fatalf("resident device 1 still holds a parked record (%d bytes)", pb1)
	}
	if b2 != pb0 {
		t.Fatalf("parked bytes = %d, want device 0's record %d", b2, pb0)
	}
}

// TestHydratedDeviceEqualsResident is delta parking's soundness at device
// level: a device parked with Deflate and hydrated by Fork is
// check.DiffWorlds-identical to a fork taken while it was resident (clock,
// energy, RNG, registers, cache, lock state and memory), its written disk
// sectors read back equal, and the two stay identical under further ops.
func TestHydratedDeviceEqualsResident(t *testing.T) {
	f := Open(4, WithSeed(3))
	defer f.Stop()
	a := &actor{f: f, sl: &slot{id: 2}}
	d, err := a.bootDevice()
	if err != nil {
		t.Fatal(err)
	}
	a.d = d
	run := func(ops ...Op) {
		t.Helper()
		for _, op := range ops {
			if _, err := a.exec(op); err != nil {
				t.Fatalf("%v: %v", op.Code, err)
			}
		}
	}
	run(Op{Code: OpTouch, Arg: 5}, Op{Code: OpDiskWrite, Arg: 7}, Op{Code: OpDiskWrite, Arg: 40},
		Op{Code: OpLock}, Op{Code: OpBgBegin}, Op{Code: OpBgTouch, Arg: 11})

	resident := d.Fork()
	d.Deflate(f.base)
	a.d = d.Fork()
	if diff := check.DiffWorlds(resident.w, a.d.w); diff != "" {
		t.Fatalf("hydrated device diverged from its resident fork: %s", diff)
	}
	for _, sec := range []uint64{7, 40} {
		got, want := make([]byte, blockdev.SectorSize), make([]byte, blockdev.SectorSize)
		if err := a.d.dm.ReadSector(sec, got); err != nil {
			t.Fatalf("hydrated read of sector %d: %v", sec, err)
		}
		if err := resident.dm.ReadSector(sec, want); err != nil {
			t.Fatalf("resident read of sector %d: %v", sec, err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, a.d.shadow[sec]) {
			t.Fatalf("sector %d reads back differently after hydration", sec)
		}
	}

	// Both continuations replay the same ops identically.
	more := []Op{{Code: OpUnlock}, {Code: OpTouch, Arg: 2}, {Code: OpDiskRead, Arg: 40}, {Code: OpDiskWrite, Arg: 9}}
	hydrated := a.d
	for _, op := range more {
		a.d = resident
		run(op)
		a.d = hydrated
		run(op)
		if diff := check.DiffWorlds(resident.w, hydrated.w); diff != "" {
			t.Fatalf("hydrated device diverged after %v: %s", op.Code, diff)
		}
	}
}
