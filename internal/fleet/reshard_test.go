package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// Live resharding. The contract under test: growing the shard count moves
// only the ceded keyspace (ring stability), preserves every device's
// identity exactly (same slot object, ledger, seq, boot count), and a
// reshard mid-soak is byte-invisible in the report.

// TestReshardMovesOnlyCededKeyspace grows 4→8 shards over a resident
// population and checks the movement set: movers land only on new shards
// (force-parked on the way), non-movers keep their shard, slot, and
// residency untouched.
func TestReshardMovesOnlyCededKeyspace(t *testing.T) {
	f := Open(100_000, WithSeed(3), WithShards(4))
	defer f.Stop()
	ctx := context.Background()

	const touched = 128
	ids := make([]DeviceID, touched)
	for i := range ids {
		ids[i] = DeviceID(i * 257)
		if _, err := f.Do(ctx, ids[i], Op{Code: OpTouch, Arg: uint64(i)}); err != nil {
			t.Fatalf("touch %d: %v", ids[i], err)
		}
	}
	type where struct {
		sh *shard
		sl *slot
	}
	before := make(map[DeviceID]where, touched)
	for _, id := range ids {
		sh, sl := f.peek(id)
		if sl == nil {
			t.Fatalf("device %d has no slot", id)
		}
		before[id] = where{sh, sl}
	}

	if err := f.Reshard(8); err != nil {
		t.Fatalf("reshard: %v", err)
	}
	h, _ := f.Health(ctx)
	if h.Shards != 8 {
		t.Fatalf("shards = %d after reshard, want 8", h.Shards)
	}

	movers := 0
	for _, id := range ids {
		sh, sl := f.peek(id)
		if sl != before[id].sl {
			t.Fatalf("device %d: slot identity changed across reshard", id)
		}
		if sh == before[id].sh {
			// Non-mover: must not have been disturbed (no park).
			sh.mu.Lock()
			state := sl.state
			sh.mu.Unlock()
			if state != slotResident {
				t.Fatalf("non-moving device %d was parked by the reshard", id)
			}
			continue
		}
		movers++
		if sh.idx < 4 {
			t.Fatalf("device %d moved to pre-existing shard %d (ring instability)", id, sh.idx)
		}
		sh.mu.Lock()
		state := sl.state
		sh.mu.Unlock()
		if state != slotParked {
			t.Fatalf("moving device %d not parked after migration", id)
		}
	}
	if movers == 0 {
		t.Fatal("doubling the shard count moved no devices")
	}
	t.Logf("reshard 4→8 moved %d/%d touched devices", movers, touched)

	// Movers hydrate on their new shard with identity intact: the ledgered
	// sequence continues at 2 and the boot count stays 1.
	hyd0 := f.Metrics().CounterValue(MetricHydrations)
	for _, id := range ids {
		res, err := f.Do(ctx, id, Op{Code: OpTouch, Arg: 1})
		if err != nil {
			t.Fatalf("post-reshard touch %d: %v", id, err)
		}
		if res.Seq != 2 {
			t.Fatalf("device %d seq = %d after migration, want 2", id, res.Seq)
		}
		if b := f.DeviceHealth(id).Boots; b != 1 {
			t.Fatalf("device %d boots = %d after migration, want 1", id, b)
		}
	}
	if n := f.Metrics().CounterValue(MetricHydrations); n-hyd0 < uint64(movers) {
		t.Fatalf("hydrations after reshard = %d, want >= %d (every mover re-hydrates)", n-hyd0, movers)
	}
}

// TestReshardMidSoakByteIdentical is the equivalence claim: a chaos soak
// with two reshards racing it produces a report — every ledger digest,
// sequence number, and failure class — byte-identical to the same soak
// without them.
func TestReshardMidSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak comparison skipped in -short")
	}
	cfg := SoakConfig{
		Devices:      24,
		OpsPerDevice: 40,
		Seed:         5,
		Faults:       "benign",
	}
	open := func() *Fleet {
		return Open(cfg.Devices,
			WithSeed(cfg.Seed),
			WithSqueezeEvery(4),
			WithShards(4),
			WithResidentCap(64),
		)
	}

	base := open()
	want, err := SoakOn(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.Stop()
	if v := base.SweepConfidentiality(); len(v) != 0 {
		t.Fatalf("baseline sweep violations: %v", v)
	}

	f := open()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Fire the reshards mid-soak: wait for real traffic, grow, wait,
		// grow again.
		for _, n := range []int{9, 16} {
			for f.Metrics().CounterValue(MetricExecs) < uint64(n*20) {
				time.Sleep(200 * time.Microsecond)
			}
			if err := f.Reshard(n); err != nil {
				t.Errorf("reshard to %d: %v", n, err)
				return
			}
		}
	}()
	got, err := SoakOn(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	h, _ := f.Health(context.Background())
	if h.Shards != 16 {
		t.Fatalf("shards = %d after reshards, want 16", h.Shards)
	}
	f.Stop()
	if v := f.SweepConfidentiality(); len(v) != 0 {
		t.Fatalf("resharded sweep violations: %v", v)
	}

	gj, _ := json.MarshalIndent(got, "", " ")
	wj, _ := json.MarshalIndent(want, "", " ")
	if string(gj) != string(wj) {
		t.Fatalf("reshard mid-soak changed the report:\nwith reshard: %s\nwithout: %s", gj, wj)
	}
}

// TestReshardErrors: the guarded edges — shrink, no-op, cap overflow,
// stopped fleet, snapshotless fleet.
func TestReshardErrors(t *testing.T) {
	f := Open(16, WithSeed(1), WithShards(4))
	if err := f.Reshard(4); err == nil {
		t.Fatal("reshard to current count succeeded")
	}
	if err := f.Reshard(2); err == nil {
		t.Fatal("shrink succeeded")
	}
	f.Stop()
	if err := f.Reshard(8); !errors.Is(err, ErrShutdown) {
		t.Fatalf("reshard after stop: %v, want ErrShutdown", err)
	}

	capped := Open(64, WithSeed(1), WithShards(4), WithResidentCap(8))
	defer capped.Stop()
	if err := capped.Reshard(16); err == nil {
		t.Fatal("reshard beyond the resident cap succeeded")
	}
	if err := capped.Reshard(8); err != nil {
		t.Fatalf("reshard to the cap: %v", err)
	}
}

// TestReshardUnderConcurrentTraffic hammers a small device set from many
// goroutines while the fleet grows 2→12 shards in steps; every op must
// succeed and every ledger stay contiguous. (Run under -race, this is the
// memory-safety proof for the topology swap and slot migration.)
func TestReshardUnderConcurrentTraffic(t *testing.T) {
	f := Open(256, WithSeed(9), WithShards(2), WithResidentCap(16))
	defer f.Stop()
	ctx := context.Background()

	const devices, opsPer = 32, 20
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for id := 0; id < devices; id++ {
		wg.Add(1)
		go func(id DeviceID) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := f.Do(ctx, id, Op{Code: OpTouch, Arg: uint64(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(DeviceID(id))
	}
	for _, n := range []int{5, 8, 12} {
		if err := f.Reshard(n); err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("op failed during reshard: %v", err)
	}
	for id := 0; id < devices; id++ {
		ledger, err := f.Ledger(ctx, DeviceID(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(ledger) != opsPer {
			t.Fatalf("device %d ledger has %d entries, want %d", id, len(ledger), opsPer)
		}
		for i, e := range ledger {
			if e.Seq != uint64(i+1) {
				t.Fatalf("device %d ledger seq %d at position %d", id, e.Seq, i)
			}
		}
	}
}
