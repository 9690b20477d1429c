package check

import (
	"fmt"
	"testing"

	"sentry/internal/faults"
	"sentry/internal/sim"
)

// TestDefendedCampaignsClean: the fully defended system must survive seeded
// campaigns on both platforms, with and without benign injected faults —
// zero violations, zero integrity failures.
func TestDefendedCampaignsClean(t *testing.T) {
	profiles := []faults.Profile{faults.None(), faults.Benign()}
	for _, platform := range []string{"tegra3", "nexus4"} {
		for _, prof := range profiles {
			platform, prof := platform, prof
			t.Run(fmt.Sprintf("%s-%s", platform, prof.Name), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Platform: platform, Defences: AllDefences(), Faults: prof}
				res := Campaign(cfg, 1, 12)
				if res.Repro != nil {
					t.Fatalf("defended system violated the invariant: %s\n  %s",
						res.Repro, res.Repro.Violation)
				}
				for _, f := range res.IntegrityFailures {
					t.Errorf("integrity failure: %s", f)
				}
			})
		}
	}
}

// TestPositiveControls: with any single defence disabled the checker must
// find the secret, shrink the witness to at most 8 ops, and the printed
// repro must replay to the same violation from a fresh world.
func TestPositiveControls(t *testing.T) {
	for _, ctl := range Controls() {
		ctl := ctl
		t.Run(ctl.Name, func(t *testing.T) {
			t.Parallel()
			repro, err := RunControl("tegra3", ctl.Name, 32, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("control %s: %s (%s; shrunk %d -> %d ops)",
				ctl.Name, repro, repro.Violation.Clause, repro.OriginalLen, len(repro.Ops))
			if len(repro.Ops) > 8 {
				t.Errorf("repro not minimal: %d ops (want <= 8): %s", len(repro.Ops), repro.Ops)
			}
			// Round-trip the printed line and replay it.
			parsed, err := ParseRepro(repro.String())
			if err != nil {
				t.Fatalf("printed repro does not parse: %v\n  %s", err, repro)
			}
			rr := Replay(parsed.Config, parsed.Seed, parsed.Ops)
			if rr.Violation == nil {
				t.Fatalf("printed repro does not reproduce: %s", repro)
			}
			if rr.Violation.Clause != repro.Violation.Clause {
				t.Errorf("replayed clause %q != shrunk clause %q",
					rr.Violation.Clause, repro.Violation.Clause)
			}
		})
	}
}

// TestGenerateDeterministic: a schedule is a pure function of (seed, steps,
// profile).
func TestGenerateDeterministic(t *testing.T) {
	for _, prof := range []faults.Profile{faults.None(), faults.Benign(), faults.Adversarial()} {
		a := GenerateFor(Config{Faults: prof}, sim.NewRNG(7), 60)
		b := GenerateFor(Config{Faults: prof}, sim.NewRNG(7), 60)
		if a.String() != b.String() {
			t.Fatalf("profile %s: same seed, different schedules:\n%s\n%s", prof.Name, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("profile %s: empty schedule", prof.Name)
		}
	}
}

// TestScheduleRoundTrip: String/ParseSchedule are inverses.
func TestScheduleRoundTrip(t *testing.T) {
	sched := GenerateFor(Config{Faults: faults.Adversarial()}, sim.NewRNG(11), 40)
	parsed, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != sched.String() {
		t.Fatalf("round trip mismatch:\n%s\n%s", sched, parsed)
	}
	if _, err := ParseSchedule("lock,no-such-op"); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := ParseSchedule("lock:xyz"); err == nil {
		t.Error("bad arg accepted")
	}
}

// TestReproParseErrors: malformed repro lines are rejected.
func TestReproParseErrors(t *testing.T) {
	bad := []string{
		"platform=vax seed=1 ops=lock",
		"defences=no-such seed=1 ops=lock",
		"faults=bogus seed=1 ops=lock",
		"seed=zzz ops=lock",
		"seed=1",
		"garbage",
	}
	for _, line := range bad {
		if _, err := ParseRepro(line); err == nil {
			t.Errorf("accepted malformed repro %q", line)
		}
	}
	good := "platform=nexus4 defences=no-lock-flush faults=benign seed=9 ops=suspend,lock:3"
	r, err := ParseRepro(good)
	if err != nil {
		t.Fatalf("rejected well-formed repro: %v", err)
	}
	if r.String() != good {
		t.Errorf("round trip mismatch: %q -> %q", good, r.String())
	}
}

// TestGlitchedResetDefeatsROMDefences: the adversarial reset-glitch skips
// the ROM's iRAM zeroing, so even the fully defended device leaks its
// volatile key — deterministically, from a two-op schedule. This is the
// paper's argument for why the defence set assumes ROM integrity.
func TestGlitchedResetDefeatsROMDefences(t *testing.T) {
	cfg := Config{Platform: "tegra3", Defences: AllDefences(), Faults: faults.Adversarial()}
	rr := Replay(cfg, 5, Schedule{{Code: OpLock}, {Code: OpGlitchReset}})
	if rr.Violation == nil {
		t.Fatal("glitched reset against a locked device recovered nothing")
	}
	if rr.Violation.Clause != "key" {
		t.Fatalf("expected the volatile key to leak, got clause %q (%s)",
			rr.Violation.Clause, rr.Violation)
	}
}

// TestPowerCutMidSchedule: the checker's power-loss ops terminate the world
// and post-mortem it; a defended device must stay clean.
func TestPowerCutMidSchedule(t *testing.T) {
	cfg := Config{Platform: "tegra3", Defences: AllDefences(), Faults: faults.None()}
	for _, ops := range []Schedule{
		{{Code: OpLock}, {Code: OpPowerCut}},
		{{Code: OpLock}, {Code: OpHeldReset}},
		{{Code: OpSuspend}, {Code: OpLock}, {Code: OpPowerCut}},
	} {
		if rr := Replay(cfg, 3, ops); rr.Violation != nil {
			t.Errorf("defended device leaked under %s: %s", ops, rr.Violation)
		}
	}
}

// TestShrinkIsMinimal: shrinking an already-minimal schedule is a no-op,
// and shrinking a padded violating schedule strips the padding.
func TestShrinkIsMinimal(t *testing.T) {
	cfg := Config{
		Platform: "tegra3",
		Defences: Defences{IRAMZeroOnBoot: false, LockFlush: true, ZeroOnFree: true},
		Faults:   faults.None(),
	}
	padded := Schedule{
		{Code: OpFgTouch, Arg: 1}, {Code: OpPressure, Arg: 9}, {Code: OpLock},
		{Code: OpBadPIN}, {Code: OpDMAScrape}, {Code: OpPowerCut},
	}
	minimal, v := Shrink(cfg, 1, padded)
	if v == nil {
		t.Fatal("padded schedule does not violate")
	}
	if len(minimal) > 2 {
		t.Errorf("shrink left padding: %s", minimal)
	}
	rr := Replay(cfg, 1, minimal)
	if rr.Violation == nil {
		t.Errorf("shrunk schedule does not replay: %s", minimal)
	}
}
