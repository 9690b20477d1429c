package check

import (
	"sync"
	"testing"
	"testing/quick"

	"sentry/internal/sim"
	"sentry/internal/snapshot"
)

// Delta-snapshot soundness: a device parked as a delta against the shared
// base (snapshot.CaptureDelta) and re-hydrated must be full-state-diff
// identical — and behave identically forever after — to one parked as a
// full snapshot. These are the property tests behind the fleet's
// delta-encoded parking; they reuse the PR 5 fork-soundness harness
// (Generate schedules over the whole op alphabet, DiffWorlds as the
// byte-level oracle).

// TestDeltaParkMatchesFullPark drives identical random prefixes into two
// forks of a frozen base, parks one full and one as a delta, then compares
// the hydrations at every step of a continuation schedule and in full state.
func TestDeltaParkMatchesFullPark(t *testing.T) {
	for ci, cfg := range forkTestConfigs() {
		base := NewWorld(cfg, 1)
		base.FreezeBase()
		snapBase := snapshot.Adopt(base)
		for seed := int64(1); seed <= 4; seed++ {
			prefix := Generate(sim.NewRNG(seed), cfg.Steps/2, cfg.Faults)
			suffix := Generate(sim.NewRNG(seed+1000), cfg.Steps/2, cfg.Faults)

			full := snapBase.Fork()
			delta := snapBase.Fork()
			for i, op := range prefix {
				vf, vd := full.Apply(op), delta.Apply(op)
				if violationString(vf) != violationString(vd) {
					t.Fatalf("cfg %d seed %d prefix step %d: %q vs %q",
						ci, seed, i, violationString(vf), violationString(vd))
				}
				if vf != nil {
					break
				}
			}

			fullSnap := snapshot.Adopt(full)
			deltaSnap, bytes := snapshot.CaptureDelta[*World, *World](delta, base)
			if bytes <= 0 {
				t.Fatalf("cfg %d seed %d: delta retained %d bytes", ci, seed, bytes)
			}

			hf := fullSnap.Fork()
			hd := deltaSnap.Fork()
			if d := DiffWorlds(hf, hd); d != "" {
				t.Fatalf("cfg %d seed %d: delta hydration diverged from full: %s", ci, seed, d)
			}
			for i, op := range suffix {
				vf, vd := hf.Apply(op), hd.Apply(op)
				if violationString(vf) != violationString(vd) {
					t.Fatalf("cfg %d seed %d suffix step %d (%s): full %q, delta %q",
						ci, seed, i, op, violationString(vf), violationString(vd))
				}
				if vf != nil {
					break
				}
			}
			if d := DiffWorlds(hf, hd); d != "" {
				t.Fatalf("cfg %d seed %d: post-suffix state diverged: %s", ci, seed, d)
			}

			// A delta snapshot must stay hydratable: a second fork replays the
			// same suffix to the same end state.
			hd2 := deltaSnap.Fork()
			replayFrom(hd2, suffix)
			if d := DiffWorlds(hd, hd2); d != "" {
				t.Fatalf("cfg %d seed %d: repeated delta hydration diverged: %s", ci, seed, d)
			}
		}
	}
}

// TestDeltaParkQuick is the quick.Check form over random (seed, split)
// pairs on the default platform: park-as-delta ≡ park-as-full for random op
// prefixes, judged by the full-state diff.
func TestDeltaParkQuick(t *testing.T) {
	cfg := Config{Platform: "tegra3", Defences: AllDefences(), Steps: 40}
	base := NewWorld(cfg, 1)
	base.FreezeBase()
	snapBase := snapshot.Adopt(base)

	f := func(seed int64, split uint8) bool {
		n := 1 + int(split)%cfg.Steps
		sched := Generate(sim.NewRNG(seed), n, cfg.Faults)
		full := snapBase.Fork()
		delta := snapBase.Fork()
		replayFrom(full, sched)
		replayFrom(delta, sched)

		fullSnap := snapshot.Adopt(full)
		deltaSnap, _ := snapshot.CaptureDelta[*World, *World](delta, base)
		hf, hd := fullSnap.Fork(), deltaSnap.Fork()
		if d := DiffWorlds(hf, hd); d != "" {
			t.Logf("seed %d steps %d: %s", seed, n, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDeltaParks deflates many forks of one frozen base from
// concurrent goroutines — the fleet's park path under load. Under -race this
// proves Deflate never writes to the shared base; every hydration must agree.
func TestConcurrentDeltaParks(t *testing.T) {
	cfg := Config{Platform: "tegra3", Defences: AllDefences(), Steps: 40}
	sched := Generate(sim.NewRNG(7), 40, cfg.Faults)
	base := NewWorld(cfg, 1)
	base.FreezeBase()
	snapBase := snapshot.Adopt(base)

	const n = 8
	worlds := make([]*World, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := snapBase.Fork()
			replayFrom(w, sched)
			snap, _ := snapshot.CaptureDelta[*World, *World](w, base)
			worlds[i] = snap.Fork()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if d := DiffWorlds(worlds[0], worlds[i]); d != "" {
			t.Fatalf("concurrent delta park %d diverged: %s", i, d)
		}
	}
}
