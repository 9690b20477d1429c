package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"sentry"
	"sentry/internal/blockdev"
	"sentry/internal/check"
	"sentry/internal/core"
	"sentry/internal/dmcrypt"
	"sentry/internal/faults"
	"sentry/internal/fleet"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/onsoc"
	"sentry/internal/sim"
)

// The probes time the benchmark's own calls into the residency, device
// exec and model-checker layers. They are cheap and independent of the
// workload, so every traced run measures them.
const (
	probePIN    = "4321"
	probeFg     = 8  // foreground pages, as a fleet device
	probeBg     = 16 // background pages, as a fleet device
	probeDiskKB = 64
	// probeCycles park/hydrate cycles, probeOpsPerCycle mix ops between
	// parks: enough samples of every op code for a p50.
	probeCycles      = 80
	probeOpsPerCycle = 8
	// checkPrefixes schedules per platform, forked every checkForkEvery
	// steps along the way.
	checkPrefixes  = 16
	checkForkEvery = 3
)

var probeMarker = []byte("PERFBENCH-PROBE-MARKER")

// probeDev is one simulated device set up the way the fleet sets up a
// hosted device: a fork of a frozen base world, a sensitive foreground and
// background process holding a marker, and a dm-crypt disk on an AES On
// SoC engine in iRAM.
type probeDev struct {
	d      *sentry.Device
	fg, bg *kernel.Process
	fgBase mmu.VirtAddr
	key    []byte
	disk   *blockdev.RAMDisk
	prov   *core.AESProvider
	dm     *dmcrypt.DMCrypt
	shadow map[uint64][]byte
}

func bootProbe(base *sentry.Device, seed int64) (*probeDev, error) {
	sd := base.Fork()
	p := &probeDev{d: sd, shadow: map[uint64][]byte{}}
	p.fg = sd.Kernel.NewProcess("fg", true, false)
	p.bg = sd.Kernel.NewProcess("bg", true, true)
	var err error
	if p.fgBase, err = sd.Kernel.MapAnon(p.fg, probeFg); err != nil {
		return nil, err
	}
	bgBase, err := sd.Kernel.MapAnon(p.bg, probeBg)
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		proc  *kernel.Process
		base  mmu.VirtAddr
		pages int
	}{{p.fg, p.fgBase, probeFg}, {p.bg, bgBase, probeBg}} {
		sd.Kernel.Switch(m.proc)
		for i := 0; i < m.pages; i++ {
			if err := sd.SoC.CPU.Store(m.base+mmu.VirtAddr(i*mem.PageSize), probeMarker); err != nil {
				return nil, err
			}
		}
	}
	rng := sim.NewRNG(seed)
	p.key = make([]byte, 16)
	for i := range p.key {
		p.key[i] = byte(rng.Intn(256))
	}
	eng, err := onsoc.NewInIRAM(sd.SoC, sd.Sentry.IRAM(), p.key)
	if err != nil {
		return nil, err
	}
	p.prov = core.NewOnSoCProvider(eng)
	p.disk = blockdev.NewRAMDisk(sd.SoC, probeDiskKB<<10)
	p.dm, err = dmcrypt.NewWithProvider(p.disk, p.prov, p.key)
	return p, err
}

// hydrate forks a parked device the way the fleet hydrates one; only the
// world fork (sentry.Device.Fork) is timed.
func (p *probeDev) hydrate() (*probeDev, time.Duration, error) {
	t0 := time.Now()
	sd := p.d.Fork()
	took := time.Since(t0)
	n := &probeDev{d: sd, fgBase: p.fgBase, key: p.key, shadow: p.shadow}
	n.fg = sd.Kernel.Process(p.fg.PID)
	n.bg = sd.Kernel.Process(p.bg.PID)
	n.disk = p.disk.Fork(sd.SoC)
	prov, err := p.prov.Adopt(sd.SoC, p.key, sd.Sentry.IRAM())
	if err != nil {
		return nil, 0, err
	}
	n.prov = prov
	n.dm = p.dm.Refit(n.disk, prov)
	return n, took, nil
}

// exec runs one serve-mix op on the device; refused reports a locked
// device's correct refusal of a touch.
func (p *probeDev) exec(op fleet.Op) (refused bool, err error) {
	k := p.d.Kernel
	switch op.Code {
	case fleet.OpPing:
		_ = k.State()
	case fleet.OpLock:
		k.Lock()
	case fleet.OpUnlock:
		return false, k.Unlock(probePIN)
	case fleet.OpTouch:
		if k.State() != kernel.Unlocked {
			return true, nil
		}
		k.Switch(p.fg)
		got := make([]byte, len(probeMarker))
		addr := p.fgBase + mmu.VirtAddr(int(op.Arg%probeFg)*mem.PageSize)
		if err := p.d.SoC.CPU.Load(addr, got); err != nil {
			return false, err
		}
		if !bytes.Equal(got, probeMarker) {
			return false, fmt.Errorf("fg page %d corrupted", op.Arg%probeFg)
		}
	case fleet.OpDiskWrite:
		sec := op.Arg % p.dm.Sectors()
		buf := bytes.Repeat([]byte{byte(op.Arg), byte(op.Arg >> 8)}, blockdev.SectorSize/2)
		if err := p.dm.WriteSector(sec, buf); err != nil {
			return false, err
		}
		p.shadow[sec] = buf
	case fleet.OpDiskRead:
		sec := op.Arg % p.dm.Sectors()
		dst := make([]byte, blockdev.SectorSize)
		if err := p.dm.ReadSector(sec, dst); err != nil {
			return false, err
		}
		if want, ok := p.shadow[sec]; ok && !bytes.Equal(dst, want) {
			return false, fmt.Errorf("disk sector %d corrupted", sec)
		}
	default:
		return false, fmt.Errorf("op %v not in the serve mix", op.Code)
	}
	return false, nil
}

// allocKB runs fn and returns its duration and the heap it allocated.
func allocKB(fn func()) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	return took, float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// probes collects layer samples.
type probes struct {
	durs   map[string][]time.Duration
	allocs map[string][]float64
	vals   map[string][]float64
}

func newProbes() *probes {
	return &probes{durs: map[string][]time.Duration{}, allocs: map[string][]float64{}, vals: map[string][]float64{}}
}

// residencyProbes drives a fleet-like device through park/hydrate cycles
// with the serve-churn mix between them. Even cycles park through
// sentry.Device.Deflate; odd cycles call its parts (mem.Store.Rebase on
// both stores, cache.L2.Deflate) one by one. Every cycle also times a dense
// cache.L2.Clone of the live device, the explorer's fork cost.
func residencyProbes(r *run, pr *probes) error {
	base, err := sentry.Open(sentry.Tegra3, probePIN, sentry.WithSeed(r.seed))
	if err != nil {
		return err
	}
	base.FreezeBase()
	live, err := bootProbe(base, r.seed)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(r.seed ^ 0x5eed)
	var cycles, ops uint64
	for c := 0; c < probeCycles; c++ {
		for i := 0; i < probeOpsPerCycle; i++ {
			op := genOp(rng)
			// A lock of a locked device or an unlock of an unlocked one
			// returns at once; time only the transitions.
			wasUnlocked := live.d.Kernel.State() == kernel.Unlocked
			noop := (op.Code == fleet.OpLock && !wasUnlocked) || (op.Code == fleet.OpUnlock && wasUnlocked)
			c0 := live.d.SoC.Clock.Cycles()
			t0 := time.Now()
			refused, err := live.exec(op)
			took := time.Since(t0)
			if err != nil {
				r.fail("probe exec %v: %v", op.Code, err)
				continue
			}
			if refused || noop || op.Code == fleet.OpPing {
				continue
			}
			pr.durs["exec."+opMetric(op.Code)] = append(pr.durs["exec."+opMetric(op.Code)], took)
			cycles += live.d.SoC.Clock.Cycles() - c0
			ops++
		}
		s := live.d.SoC
		t0 := time.Now()
		s.L2.Clone(s.Clock, s.Meter, s.Bus).Release()
		pr.durs["cache.l2_clone"] = append(pr.durs["cache.l2_clone"], time.Since(t0))
		if c%2 == 0 {
			var delta int64
			park, kb := allocKB(func() { delta = live.d.Deflate(base) })
			pr.durs["snapshot.park"] = append(pr.durs["snapshot.park"], park)
			pr.allocs["snapshot.park"] = append(pr.allocs["snapshot.park"], kb)
			pr.vals["snapshot.delta_kb"] = append(pr.vals["snapshot.delta_kb"], float64(delta)/1024)
		} else {
			t0 := time.Now()
			s.IRAM.Rebase(base.SoC.IRAM)
			s.DRAM.Rebase(base.SoC.DRAM)
			pr.durs["mem.rebase"] = append(pr.durs["mem.rebase"], time.Since(t0))
			t0 = time.Now()
			s.L2.Deflate(base.SoC.L2)
			pr.durs["cache.l2_deflate"] = append(pr.durs["cache.l2_deflate"], time.Since(t0))
		}
		var (
			next *probeDev
			took time.Duration
		)
		_, kb := allocKB(func() { next, took, err = live.hydrate() })
		pr.durs["snapshot.hydrate"] = append(pr.durs["snapshot.hydrate"], took)
		if err != nil {
			return err
		}
		pr.allocs["snapshot.hydrate"] = append(pr.allocs["snapshot.hydrate"], kb)
		live = next
	}
	if ops > 0 {
		pr.vals["exec.sim_cycles_per_op"] = []float64{float64(cycles) / float64(ops)}
	}
	return nil
}

// opMetric names an op code in metric names.
func opMetric(c fleet.OpCode) string {
	switch c {
	case fleet.OpDiskWrite:
		return "disk_write"
	case fleet.OpDiskRead:
		return "disk_read"
	}
	return c.String()
}

// checkProbes walks campaign schedules from each platform's root world and,
// every few steps, times check.World.Fork of the prefix and Apply of the
// next op on the fork — the explorer's per-node work.
func checkProbes(r *run, pr *probes) {
	for _, plat := range explorePlatforms {
		cfg := check.Config{Platform: plat, Defences: check.AllDefences(), Faults: faults.None()}
		root := check.NewWorld(cfg, r.seed)
		for s := 0; s < checkPrefixes; s++ {
			rng := sim.NewRNG(r.seed*1000 + int64(s))
			w := root.Fork()
			for i, op := range check.GenerateFor(cfg, rng, check.DefaultSteps) {
				if i%checkForkEvery == 0 {
					var f *check.World
					fork, kb := allocKB(func() { f = w.Fork() })
					pr.durs["check.fork"] = append(pr.durs["check.fork"], fork)
					pr.allocs["check.fork"] = append(pr.allocs["check.fork"], kb)
					t0 := time.Now()
					f.Apply(op)
					pr.durs["check.apply"] = append(pr.durs["check.apply"], time.Since(t0))
					f.Release()
				}
				if v := w.Apply(op); v != nil {
					r.fail("check probe %s: violation on a defended world: %v", plat, v)
					break
				}
				if w.Dead() {
					break
				}
			}
		}
	}
}

// runProbes runs every probe and reports its metrics.
func runProbes(r *run) error {
	pr := newProbes()
	if err := residencyProbes(r, pr); err != nil {
		return err
	}
	checkProbes(r, pr)
	for _, name := range []string{"snapshot.park", "snapshot.hydrate", "mem.rebase", "cache.l2_deflate",
		"cache.l2_clone", "check.fork", "check.apply",
		"exec.lock", "exec.unlock", "exec.disk_write", "exec.disk_read"} {
		v, err := percentile(durUS(pr.durs[name]), 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set(name+"_p50_us", "us", v, len(pr.durs[name]))
	}
	for _, name := range []string{"snapshot.park", "snapshot.hydrate", "check.fork"} {
		r.set(name+"_alloc_kb", "KB", median(pr.allocs[name]), len(pr.allocs[name]))
	}
	r.set("snapshot.delta_kb", "KB", median(pr.vals["snapshot.delta_kb"]), len(pr.vals["snapshot.delta_kb"]))
	r.set("exec.sim_cycles_per_op", "cycles", median(pr.vals["exec.sim_cycles_per_op"]), 0)
	return nil
}
