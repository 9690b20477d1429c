package check

import (
	"testing"

	"sentry/internal/faults"
)

// TestSnapshotOnOffIdentity shrinks real violating schedules twice: through
// Shrink, which forks one captured post-boot world per candidate (snapshot
// on), and through ShrinkFrom(nil, …), which cold-boots per candidate
// (snapshot off). The schedules are the adversarial campaign's first
// violation and each positive control's, truncated at the violating step as
// the campaign pipeline does. Repro lines and violation strings must be
// identical: forking may only change wall clock, never results.
func TestSnapshotOnOffIdentity(t *testing.T) {
	adv, _ := faults.ByName("adversarial")
	type source struct {
		name  string
		cfg   Config
		seeds int
	}
	sources := []source{{"adversarial campaign",
		Config{Platform: "tegra3", Defences: AllDefences(), Faults: adv, Steps: 60}, 10}}
	for _, ctl := range Controls() {
		sources = append(sources, source{"control " + ctl.Name,
			Config{Platform: "tegra3", Defences: ctl.Defences, Faults: faults.None(), Steps: 40}, 32})
	}

	for _, src := range sources {
		seed, sched := firstViolation(t, src.cfg, src.seeds)
		forkedOps, forkedV := Shrink(src.cfg, seed, sched)
		coldOps, coldV := ShrinkFrom(nil, src.cfg, seed, sched)
		if forkedV == nil || coldV == nil {
			t.Fatalf("%s: shrink lost the violation (forked %v, cold %v)", src.name, forkedV, coldV)
		}
		forked := &Repro{Config: src.cfg, Seed: seed, Ops: forkedOps, Violation: forkedV}
		cold := &Repro{Config: src.cfg, Seed: seed, Ops: coldOps, Violation: coldV}
		if forked.String() != cold.String() {
			t.Errorf("%s: repro lines differ:\n  forked: %s\n  cold:   %s", src.name, forked, cold)
		}
		if forkedV.String() != coldV.String() {
			t.Errorf("%s: violations differ:\n  forked: %s\n  cold:   %s", src.name, forkedV, coldV)
		}
	}
}

// firstViolation runs seeds 1..seeds of cfg and returns the first violating
// seed with its schedule cut at the violating step.
func firstViolation(t *testing.T, cfg Config, seeds int) (int64, Schedule) {
	t.Helper()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sched, rr := Run(cfg, seed)
		if v := rr.Violation; v != nil {
			if v.Step > 0 && v.Step <= len(sched) {
				sched = sched[:v.Step]
			}
			return seed, sched
		}
	}
	t.Fatalf("no violation in %d seeds of %+v", seeds, cfg)
	return 0, nil
}
