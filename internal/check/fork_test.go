package check

import (
	"sync"
	"testing"

	"sentry/internal/faults"
	"sentry/internal/sim"
)

// Fork-soundness property tests for the checkpoint/fork engine: a forked
// world must be observationally byte-identical to a cold-booted one at every
// step of any schedule, and mutations in one fork must never leak into the
// checkpoint, the parent, or sibling forks. Run under -race these tests also
// exercise the concurrent-fork contract of a FreezeBase'd world.

func forkTestConfigs() []Config {
	benign, _ := faults.ByName("benign")
	adversarial, _ := faults.ByName("adversarial")
	return []Config{
		{Platform: "tegra3", Defences: AllDefences(), Steps: 60},
		{Platform: "nexus4", Defences: AllDefences(), Steps: 60},
		{Platform: "tegra3", Defences: Defences{IRAMZeroOnBoot: true, LockFlush: false, ZeroOnFree: true}, Steps: 60},
		{Platform: "tegra3", Defences: AllDefences(), Faults: benign, Steps: 60},
		{Platform: "tegra3", Defences: AllDefences(), Faults: adversarial, Steps: 60},
	}
}

func violationString(v *Violation) string {
	if v == nil {
		return ""
	}
	return v.String()
}

// TestWorldForkMatchesColdBoot locks a cold-booted world and a fork of a
// frozen post-boot world to the same schedule, comparing the violation
// stream at every step and the complete world state at the end.
func TestWorldForkMatchesColdBoot(t *testing.T) {
	for ci, cfg := range forkTestConfigs() {
		for seed := int64(1); seed <= 6; seed++ {
			sched := GenerateFor(cfg, sim.NewRNG(seed), cfg.Steps)
			cold := NewWorld(cfg, seed)
			boot := NewWorld(cfg, seed)
			boot.FreezeBase()
			forked := boot.Fork()
			for i, op := range sched {
				vc := cold.Apply(op)
				vf := forked.Apply(op)
				if violationString(vc) != violationString(vf) {
					t.Fatalf("cfg %d seed %d step %d (%s): cold violation %q, forked %q",
						ci, seed, i, op, violationString(vc), violationString(vf))
				}
				if vc != nil {
					break
				}
			}
			ic, fc := cold.IntegrityCheck(), forked.IntegrityCheck()
			if (ic == nil) != (fc == nil) || (ic != nil && ic.Error() != fc.Error()) {
				t.Fatalf("cfg %d seed %d: integrity mismatch: cold %v, forked %v", ci, seed, ic, fc)
			}
			if d := DiffWorlds(cold, forked); d != "" {
				t.Fatalf("cfg %d seed %d: cold and forked worlds diverged: %s", ci, seed, d)
			}
		}
	}
}

// TestForkIsolation proves mutations never travel between forks: the live
// parent keeps running after it is forked, a sibling fork runs a different
// schedule, and two identical replays from the checkpoint must still agree
// exactly.
func TestForkIsolation(t *testing.T) {
	cfg := Config{Platform: "tegra3", Defences: AllDefences(), Steps: 60}
	seed := int64(5)
	schedA := GenerateFor(cfg, sim.NewRNG(seed), 60)
	schedB := GenerateFor(cfg, sim.NewRNG(seed+100), 60)

	parent := NewWorld(cfg, seed)
	boot := parent.Fork()
	boot.FreezeBase()

	first := boot.Fork()
	ReplayFrom(first, schedA)

	// Contamination attempts: the parent keeps running after the fork, and
	// a sibling fork runs a different schedule.
	ReplayFrom(parent, schedB)
	sibling := boot.Fork()
	ReplayFrom(sibling, schedB)

	second := boot.Fork()
	ReplayFrom(second, schedA)
	if d := DiffWorlds(first, second); d != "" {
		t.Fatalf("checkpoint contaminated by parent or sibling mutations: %s", d)
	}
}

// TestConcurrentForks forks one frozen world from many goroutines at once,
// with no lock (the parallel bench and explorer-root pattern); under -race
// this proves forking a FreezeBase'd world never writes to it, and every
// fork must produce the identical end state.
func TestConcurrentForks(t *testing.T) {
	cfg := Config{Platform: "tegra3", Defences: AllDefences(), Steps: 60}
	seed := int64(3)
	sched := GenerateFor(cfg, sim.NewRNG(seed), 60)
	boot := NewWorld(cfg, seed)
	boot.FreezeBase()

	const n = 8
	worlds := make([]*World, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := boot.Fork()
			ReplayFrom(w, sched)
			worlds[i] = w
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if d := DiffWorlds(worlds[0], worlds[i]); d != "" {
			t.Fatalf("concurrent fork %d diverged: %s", i, d)
		}
	}
}
