package check

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sentry/internal/aes"
	"sentry/internal/faults"
	"sentry/internal/sim"
)

// RunResult is the outcome of executing one schedule against one world.
type RunResult struct {
	Violation    *Violation
	IntegrityErr error
	Perturbed    bool
	// AttackLog is the deterministic probe-timing trace of the cache-attack
	// ops (nil without a cache-attack config); see World.AttackLog.
	AttackLog []string
}

// Run generates the schedule for (cfg, seed) and executes it. The schedule
// is a pure function of the inputs, so the same (cfg, seed) pair always
// explores the same trajectory.
func Run(cfg Config, seed int64) (Schedule, RunResult) {
	sched := GenerateFor(cfg, sim.NewRNG(seed), cfg.steps())
	return sched, Replay(cfg, seed, sched)
}

// Replay executes an explicit schedule against a fresh world built from
// (cfg, seed). Replaying the schedule printed by a Repro reproduces its
// violation exactly; shrinking uses the same path to validate candidates.
func Replay(cfg Config, seed int64, sched Schedule) RunResult {
	return finishRun(NewWorld(cfg, seed), sched)
}

// finishRun executes a schedule against an already-built world (cold-booted
// or forked from a snapshot) and runs the end-of-schedule integrity check.
func finishRun(w *World, sched Schedule) RunResult {
	if v := ReplayFrom(w, sched); v != nil {
		return RunResult{Violation: v, Perturbed: w.Perturbed(), AttackLog: w.AttackLog()}
	}
	return RunResult{IntegrityErr: w.IntegrityCheck(), Perturbed: w.Perturbed(), AttackLog: w.AttackLog()}
}

// Repro is a minimal reproducer for a violation: replay Ops against a world
// built from (Config, Seed) and the same violation fires.
type Repro struct {
	Config      Config
	Seed        int64
	Ops         Schedule
	Violation   *Violation
	OriginalLen int
}

// String renders the repro as a single replayable line, e.g.
//
//	platform=tegra3 defences=no-lock-flush faults=none seed=3 ops=suspend,lock
//
// Configs with a cache-attack profile add cache= and attacks= tokens, DFA
// configs add dfa= and counter= tokens; plain configs print exactly the
// historical five-field form.
func (r *Repro) String() string {
	s := fmt.Sprintf("platform=%s defences=%s faults=%s",
		platformName(r.Config.Platform), defencesString(r.Config.Defences),
		faultsName(r.Config.Faults))
	if r.Config.Cache != "" {
		s += " cache=" + r.Config.Cache
	}
	if r.Config.Attacks != "" {
		s += " attacks=" + r.Config.Attacks
	}
	if r.Config.DFA != "" {
		s += " dfa=" + r.Config.DFA
	}
	if r.Config.Counter != "" {
		s += " counter=" + r.Config.Counter
	}
	return fmt.Sprintf("%s seed=%d ops=%s", s, r.Seed, r.Ops)
}

func platformName(p string) string {
	if p == "" {
		return "tegra3"
	}
	return p
}

func faultsName(p faults.Profile) string {
	if p.Name == "" {
		return "none"
	}
	return p.Name
}

func defencesString(d Defences) string {
	var off []string
	if !d.IRAMZeroOnBoot {
		off = append(off, "no-iram-zero")
	}
	if !d.LockFlush {
		off = append(off, "no-lock-flush")
	}
	if !d.ZeroOnFree {
		off = append(off, "no-zero-on-free")
	}
	if len(off) == 0 {
		return "all"
	}
	return strings.Join(off, ",")
}

func parseDefences(s string) (Defences, error) {
	d := AllDefences()
	if s == "all" || s == "" {
		return d, nil
	}
	for _, tok := range strings.Split(s, ",") {
		switch tok {
		case "no-iram-zero":
			d.IRAMZeroOnBoot = false
		case "no-lock-flush":
			d.LockFlush = false
		case "no-zero-on-free":
			d.ZeroOnFree = false
		default:
			return d, fmt.Errorf("check: unknown defence token %q", tok)
		}
	}
	return d, nil
}

// ParseRepro parses the String form back into a replayable Repro.
func ParseRepro(line string) (*Repro, error) {
	r := &Repro{Config: Config{Platform: "tegra3", Defences: AllDefences()}}
	for _, field := range strings.Fields(strings.TrimSpace(line)) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("check: bad repro field %q", field)
		}
		switch key {
		case "platform":
			if val != "tegra3" && val != "nexus4" {
				return nil, fmt.Errorf("check: unknown platform %q", val)
			}
			r.Config.Platform = val
		case "defences":
			d, err := parseDefences(val)
			if err != nil {
				return nil, err
			}
			r.Config.Defences = d
		case "faults":
			prof, ok := faults.ByName(val)
			if !ok {
				return nil, fmt.Errorf("check: unknown fault profile %q", val)
			}
			r.Config.Faults = prof
		case "cache":
			if !validCacheProfile(val) || val == "" {
				return nil, fmt.Errorf("check: unknown cache profile %q", val)
			}
			r.Config.Cache = val
		case "attacks":
			for _, a := range strings.Split(val, ",") {
				if !validAttack(a) {
					return nil, fmt.Errorf("check: unknown attack %q", a)
				}
			}
			r.Config.Attacks = val
		case "dfa":
			if !validDFAProfile(val) || val == "" {
				return nil, fmt.Errorf("check: unknown dfa profile %q", val)
			}
			r.Config.DFA = val
		case "counter":
			if _, ok := aes.CountermeasureByName(val); !ok || val == "" {
				return nil, fmt.Errorf("check: unknown countermeasure %q", val)
			}
			r.Config.Counter = val
		case "seed":
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("check: bad seed %q: %v", val, err)
			}
			r.Seed = seed
		case "ops":
			ops, err := ParseSchedule(val)
			if err != nil {
				return nil, err
			}
			r.Ops = ops
		default:
			return nil, fmt.Errorf("check: unknown repro field %q", key)
		}
	}
	if len(r.Ops) == 0 {
		return nil, fmt.Errorf("check: repro has no ops")
	}
	return r, nil
}

// CampaignResult summarises a seeded campaign.
type CampaignResult struct {
	Config    Config
	StartSeed int64
	Seeds     int
	// ViolationSeeds counts seeds whose schedule violated the invariant.
	ViolationSeeds int
	// Repro is the first violation, shrunk to a minimal reproducer.
	Repro *Repro
	// IntegrityFailures lists seeds whose end-of-run data check failed.
	IntegrityFailures []string
}

// Campaign runs seeds consecutive seeded schedules starting at startSeed.
// The first violation is shrunk into a minimal Repro; later seeds still run
// (and are counted) so a campaign reports how widespread a break is.
func Campaign(cfg Config, startSeed int64, seeds int) CampaignResult {
	return CampaignParallel(cfg, startSeed, seeds, 1)
}

// CampaignParallel is Campaign on a worker pool of the given width (0 means
// GOMAXPROCS). Seeds are independent worlds, so workers never share state;
// outcomes land in a per-seed slot and are aggregated in seed order, and the
// one shrink runs after the pool drains on the lowest violating seed — so
// the result (verdict, counts, repro line, integrity list) is byte-identical
// to a serial run at any width. TestCampaignParallelMatchesSerial holds that
// property under -race.
func CampaignParallel(cfg Config, startSeed int64, seeds, workers int) CampaignResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > seeds {
		workers = seeds
	}
	res := CampaignResult{Config: cfg, StartSeed: startSeed, Seeds: seeds}

	type outcome struct {
		sched Schedule
		rr    RunResult
	}
	outs := make([]outcome, seeds)
	if workers <= 1 {
		for i := 0; i < seeds; i++ {
			outs[i].sched, outs[i].rr = Run(cfg, startSeed+int64(i))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= seeds {
						return
					}
					outs[i].sched, outs[i].rr = Run(cfg, startSeed+int64(i))
				}
			}()
		}
		wg.Wait()
	}

	for i := 0; i < seeds; i++ {
		seed := startSeed + int64(i)
		rr := outs[i].rr
		if rr.Violation != nil {
			res.ViolationSeeds++
			if res.Repro == nil {
				res.Repro = shrinkToRepro(cfg, seed, outs[i].sched, rr.Violation)
			}
			continue
		}
		if rr.IntegrityErr != nil {
			res.IntegrityFailures = append(res.IntegrityFailures,
				fmt.Sprintf("seed %d: %v", seed, rr.IntegrityErr))
		}
	}
	return res
}

// shrinkToRepro truncates the schedule at the violating step and delta-
// debugs it down to a minimal reproducer. Shrink captures the seed's
// post-boot world once and forks it per candidate (the checkpoint/fork fast
// path); capturing is deliberately lazy — only violating seeds reach here,
// so the campaign's clean seeds never pay for a snapshot they would not use.
func shrinkToRepro(cfg Config, seed int64, sched Schedule, v *Violation) *Repro {
	orig := sched
	if v.Step > 0 && v.Step <= len(sched) {
		orig = sched[:v.Step]
	}
	minimal, mv := Shrink(cfg, seed, orig)
	if mv == nil { // should not happen: the truncated schedule violated
		minimal, mv = orig, v
	}
	return &Repro{Config: cfg, Seed: seed, Ops: minimal, Violation: mv, OriginalLen: len(orig)}
}

// Control is a deliberately weakened configuration the checker must defeat:
// the positive controls proving the checker is not vacuous.
type Control struct {
	Name        string
	Defences    Defences
	Description string
}

// Controls returns the three single-defence ablations.
func Controls() []Control {
	return []Control{
		{
			Name:        "iram-zero-off",
			Defences:    Defences{IRAMZeroOnBoot: false, LockFlush: true, ZeroOnFree: true},
			Description: "firmware does not zero iRAM on boot; the volatile key survives a reset",
		},
		{
			Name:        "lock-flush-off",
			Defences:    Defences{IRAMZeroOnBoot: true, LockFlush: false, ZeroOnFree: true},
			Description: "encrypt-on-lock skips the masked cache flush; stale DRAM plaintext survives lock",
		},
		{
			Name:        "zero-on-free-off",
			Defences:    Defences{IRAMZeroOnBoot: true, LockFlush: true, ZeroOnFree: false},
			Description: "lock does not drain the zero queue; freed plaintext frames ride into the locked state",
		},
	}
}

// RunControl runs seeded schedules against the named ablation until the
// checker finds the planted weakness, then shrinks it. Controls run without
// injected faults so the shrink is fully deterministic. An error means the
// checker failed its positive control.
func RunControl(platform, name string, maxSeeds, steps int) (*Repro, error) {
	var ctl *Control
	for _, c := range Controls() {
		if c.Name == name {
			ctl = &c
			break
		}
	}
	if ctl == nil {
		return nil, fmt.Errorf("check: unknown control %q", name)
	}
	cfg := Config{Platform: platform, Defences: ctl.Defences, Faults: faults.None(), Steps: steps}
	for seed := int64(1); seed <= int64(maxSeeds); seed++ {
		sched, rr := Run(cfg, seed)
		if rr.Violation != nil {
			return shrinkToRepro(cfg, seed, sched, rr.Violation), nil
		}
	}
	return nil, fmt.Errorf("check: control %s found no violation in %d seeds (checker is blind to: %s)",
		name, maxSeeds, ctl.Description)
}
