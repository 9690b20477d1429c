package check

import (
	"fmt"
	"testing"

	"sentry/internal/faults"
	"sentry/internal/obs"
)

// lockFlushOff is the ablation the shrink tests mine for violations: it
// fires on short schedules, so shrinking has real work to do.
func lockFlushOff() Defences {
	return Defences{IRAMZeroOnBoot: true, LockFlush: false, ZeroOnFree: true}
}

// TestShrinkCheckpointReplaysOnlySuffix pins the shrink fast path's whole
// point: with a boot snapshot, candidate validation forks the advanced
// prefix checkpoint and replays only the candidate's suffix, so a shrink
// whose schedule keeps its head executes strictly fewer ops than the cold
// path replaying every candidate in full — while producing the identical
// minimal schedule and violation. Ops are counted through
// Config.OpsCounter, which every world forked from the config inherits, so
// checkpoint forks and suffix replays all land in the same counter.
//
// The schedule is crafted head-essential for the zero-on-free ablation:
// the leading free-page plants the plaintext frame on the zero queue, a
// long run of removable junk follows, and the closing lock rides the
// un-drained queue into the locked state. ddmin must keep the head, so
// every sweep serves candidates at start > 0 — the suffix-only case.
func TestShrinkCheckpointReplaysOnlySuffix(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Platform: "tegra3",
		Defences: Defences{IRAMZeroOnBoot: true, LockFlush: true, ZeroOnFree: false},
		Faults:   faults.None(), Steps: 60,
	}
	const seed = int64(1)
	sched := Schedule{{Code: OpFreePage, Arg: 2}}
	for i := 0; i < 30; i++ {
		sched = append(sched, Op{Code: OpFgTouch, Arg: uint32(i)}, Op{Code: OpPressure, Arg: uint32(i)})
	}
	sched = append(sched, Op{Code: OpLock})
	if v := Replay(cfg, seed, sched).Violation; v == nil {
		t.Fatal("crafted schedule does not violate — zero-on-free physics changed?")
	}

	run := func(boot bool) (Schedule, *Violation, uint64) {
		ctr := &obs.Counter{}
		ccfg := cfg
		ccfg.OpsCounter = ctr
		var w *World
		if boot {
			w = NewWorld(ccfg, seed)
			w.FreezeBase()
		}
		minimal, v := ShrinkFrom(w, ccfg, seed, sched)
		return minimal, v, ctr.Value()
	}

	minCold, vCold, opsCold := run(false)
	minSnap, vSnap, opsSnap := run(true)

	if vCold == nil || vSnap == nil {
		t.Fatalf("shrink lost the violation: cold=%v snap=%v", vCold, vSnap)
	}
	if minCold.String() != minSnap.String() {
		t.Fatalf("checkpoint path changed the minimal schedule:\n  cold: %s\n  snap: %s", minCold, minSnap)
	}
	if vCold.Clause != vSnap.Clause {
		t.Fatalf("checkpoint path changed the violation clause: cold=%s snap=%s", vCold.Clause, vSnap.Clause)
	}
	if opsSnap >= opsCold {
		t.Fatalf("checkpoint shrink replayed %d ops, cold path %d — suffix-only replay saved nothing",
			opsSnap, opsCold)
	}
	t.Logf("shrink of %d-op schedule: cold %d ops, checkpoint %d ops (%.1f%%)",
		len(sched), opsCold, opsSnap, 100*float64(opsSnap)/float64(opsCold))
}

// TestCampaignParallelMatchesSerial pins CampaignParallel's contract: the
// verdict, per-seed counts, repro line, and integrity list are
// byte-identical at any worker count. The adversarial profile makes the
// campaign messy on purpose — violations on several seeds, so the repro
// must come from the lowest violating seed regardless of which worker
// finished first.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	adv, ok := faults.ByName("adversarial")
	if !ok {
		t.Fatal("adversarial fault profile missing")
	}
	for _, cfg := range []Config{
		{Platform: "tegra3", Defences: AllDefences(), Faults: adv, Steps: 50},
		{Platform: "nexus4", Defences: lockFlushOff(), Faults: faults.None(), Steps: 50},
	} {
		key := func(r CampaignResult) string {
			s := fmt.Sprintf("%s|%s|%s|violations=%d", r.Config.Platform,
				defencesString(r.Config.Defences), faultsName(r.Config.Faults), r.ViolationSeeds)
			if r.Repro != nil {
				s += "|" + r.Repro.String() + "|" + r.Repro.Violation.String()
			}
			for _, f := range r.IntegrityFailures {
				s += "|" + f
			}
			return s
		}
		serial := CampaignParallel(cfg, 1, 24, 1)
		for _, workers := range []int{2, 4, 0} {
			par := CampaignParallel(cfg, 1, 24, workers)
			if key(par) != key(serial) {
				t.Errorf("platform %s workers %d diverged from serial:\n  serial:   %s\n  parallel: %s",
					cfg.Platform, workers, key(serial), key(par))
			}
		}
	}
}
