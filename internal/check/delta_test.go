package check

import (
	"sync"
	"testing"
	"testing/quick"

	"sentry/internal/sim"
)

// Delta-park soundness: a world parked as a delta against the shared frozen
// base (World.Deflate) and re-hydrated by Fork must be full-state-diff
// identical — and behave identically forever after — to one parked whole.
// These are the property tests behind the fleet's delta-encoded parking;
// they reuse the fork-soundness harness (GenerateFor schedules over the
// whole op alphabet, DiffWorlds as the byte-level oracle).

// TestDeltaParkMatchesFullPark drives identical random prefixes into two
// forks of a frozen base, parks one full and one as a delta, then compares
// the hydrations at every step of a continuation schedule and in full state.
func TestDeltaParkMatchesFullPark(t *testing.T) {
	for ci, cfg := range forkTestConfigs() {
		base := NewWorld(cfg, 1)
		base.FreezeBase()
		for seed := int64(1); seed <= 4; seed++ {
			prefix := GenerateFor(cfg, sim.NewRNG(seed), cfg.Steps/2)
			suffix := GenerateFor(cfg, sim.NewRNG(seed+1000), cfg.Steps/2)

			full := base.Fork()
			delta := base.Fork()
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

			if bytes := delta.Deflate(base); bytes <= 0 {
				t.Fatalf("cfg %d seed %d: delta retained %d bytes", ci, seed, bytes)
			}

			hf := full.Fork()
			hd := delta.Fork()
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

			// A deflated world must stay hydratable: a second fork replays the
			// same suffix to the same end state.
			hd2 := delta.Fork()
			ReplayFrom(hd2, suffix)
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

	f := func(seed int64, split uint8) bool {
		n := 1 + int(split)%cfg.Steps
		sched := GenerateFor(cfg, sim.NewRNG(seed), n)
		full := base.Fork()
		delta := base.Fork()
		ReplayFrom(full, sched)
		ReplayFrom(delta, sched)

		delta.Deflate(base)
		hf, hd := full.Fork(), delta.Fork()
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
	sched := GenerateFor(cfg, sim.NewRNG(7), 40)
	base := NewWorld(cfg, 1)
	base.FreezeBase()

	const n = 8
	worlds := make([]*World, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := base.Fork()
			ReplayFrom(w, sched)
			w.Deflate(base)
			worlds[i] = w.Fork()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if d := DiffWorlds(worlds[0], worlds[i]); d != "" {
			t.Fatalf("concurrent delta park %d diverged: %s", i, d)
		}
	}
}
