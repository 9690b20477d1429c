package explore

import (
	"testing"

	"sentry/internal/check"
	"sentry/internal/faults"
	"sentry/internal/sim"
)

// TestInertPairsCommute is the POR soundness harness: for every pair of
// op codes the commutation table can ever prune, sample reachable worlds
// by replaying generated schedule prefixes, and wherever both guards hold,
// fork the world twice, apply the two ops in both orders, and require the
// end states byte-identical under check.DiffWorlds — the same oracle the
// fork soundness property tests use, so "identical" means clock, energy,
// RNG position, cache state, and every memory page, not a summary.
//
// Pairs whose guards are mutually exclusive (suspend needs a suspended
// world, wake an awake one) can never co-occur — the prune rule cannot
// fire on them either, so they are exempt; the test instead requires that
// a healthy majority of the table was actually exercised.
func TestInertPairsCommute(t *testing.T) {
	t.Parallel()
	cfg := check.Config{
		Platform: "tegra3", Defences: check.AllDefences(),
		Faults: faults.None(), Steps: 60,
	}
	codes := InertCodes()
	type pair [2]check.OpCode
	exercised := map[pair]int{}
	const perPairBudget = 4

	for seed := int64(1); seed <= 30; seed++ {
		w := check.NewWorld(cfg, seed)
		sched := check.GenerateFor(cfg, sim.NewRNG(seed), cfg.Steps)
		for _, step := range sched {
			if w.Dead() {
				break
			}
			for i, a := range codes {
				for _, b := range codes[i:] {
					p := pair{a, b}
					if exercised[p] >= perPairBudget {
						continue
					}
					oa := check.Op{Code: a, Arg: uint32(seed % 7)}
					ob := check.Op{Code: b, Arg: uint32(seed % 5)}
					if !Inert(w, oa) || !Inert(w, ob) {
						continue
					}
					ab, ba := w.Fork(), w.Fork()
					for _, apply := range []struct {
						w      *check.World
						o1, o2 check.Op
					}{{ab, oa, ob}, {ba, ob, oa}} {
						if v := apply.w.Apply(apply.o1); v != nil {
							t.Fatalf("inert op %v violated at seed %d: %v", apply.o1, seed, v)
						}
						if v := apply.w.Apply(apply.o2); v != nil {
							t.Fatalf("inert op %v violated at seed %d: %v", apply.o2, seed, v)
						}
					}
					if d := check.DiffWorlds(ab, ba); d != "" {
						t.Errorf("pair (%v, %v) does not commute at seed %d step %d:\n%s",
							oa, ob, seed, w.Step(), d)
					}
					exercised[p]++
				}
			}
			w.Apply(step)
		}
	}

	total := len(codes) * (len(codes) + 1) / 2
	if len(exercised) < total*2/3 {
		t.Fatalf("only %d of %d inert pairs were exercised — sampling too thin for soundness",
			len(exercised), total)
	}
	t.Logf("exercised %d of %d pairs", len(exercised), total)
}

// TestPruneRequiresCanonicalOrder pins the half of the prune rule the
// commutation test cannot see: of two commuting edges only the
// canonically earlier order is kept, and the rule never fires when either
// guard fails.
func TestPruneRequiresCanonicalOrder(t *testing.T) {
	t.Parallel()
	cfg := check.Config{
		Platform: "tegra3", Defences: check.AllDefences(),
		Faults: faults.None(), Steps: 10,
	}
	w := check.NewWorld(cfg, 1)
	if v := w.Apply(check.Op{Code: check.OpLock}); v != nil {
		t.Fatalf("lock violated: %v", v)
	}
	// Locked world: lock, fg-touch, free-page are all inert.
	lock := check.Op{Code: check.OpLock}
	touch := check.Op{Code: check.OpFgTouch, Arg: 1}
	if !Inert(w, lock) || !Inert(w, touch) {
		t.Fatal("expected lock and fg-touch inert on a locked world")
	}
	if !prune(w, touch, lock) {
		t.Error("canonically-later incoming edge must prune the earlier sibling")
	}
	if prune(w, lock, touch) {
		t.Error("canonically-ordered pair must be kept")
	}
	if prune(w, lock, lock) {
		t.Error("an edge must never prune itself")
	}
	// Unlock: the guards fail, nothing prunes.
	if v := w.Apply(check.Op{Code: check.OpUnlock}); v != nil {
		t.Fatalf("unlock violated: %v", v)
	}
	if Inert(w, lock) || Inert(w, touch) {
		t.Fatal("lock/fg-touch must not be inert on an unlocked world")
	}
	if prune(w, touch, lock) || prune(w, lock, touch) {
		t.Error("prune fired with a failed guard")
	}
}
