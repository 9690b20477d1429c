// Package soc composes the hardware substrates into complete simulated
// platforms mirroring the paper's two prototypes:
//
//   - Tegra3: the NVidia Tegra 3 development board — 1 GB DRAM, 256 KB iRAM
//     (first 64 KB reserved by firmware), a 1 MB 8-way PL310 L2 with
//     lockdown enabled by the board firmware, secure-world (TrustZone)
//     access, quad Cortex-A9 at 1.2 GHz, unlocked bootloader.
//   - Nexus4: the Google Nexus 4 — 2 GB DRAM, iRAM, a crypto accelerator,
//     but locked firmware: no secure-world entry and therefore no cache
//     locking, and a locked bootloader.
//
// A SoC also owns the three reset paths whose remanence consequences
// Table 2 measures: warm OS reboot, device reflash (short power blip), and
// a held reset (2 s power cut).
package soc

import (
	"errors"

	"sentry/internal/bus"
	"sentry/internal/cache"
	"sentry/internal/cpu"
	"sentry/internal/dma"
	"sentry/internal/firmware"
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/remanence"
	"sentry/internal/sim"
	"sentry/internal/tz"
)

// ErrUnsupported reports that the platform lacks the hardware capability an
// operation needs (no exposed bus to probe, no open DMA port, no secure
// world, ...). Wrap it with fmt.Errorf("...: %w", ErrUnsupported) so callers
// can test with errors.Is.
var ErrUnsupported = errors.New("soc: platform does not support this operation")

// Fixed physical address map shared by both platforms.
const (
	IRAMBase mem.PhysAddr = 0x4000_0000
	DRAMBase mem.PhysAddr = 0x8000_0000
)

// Profile describes a hardware platform.
type Profile struct {
	Name     string
	CPUHz    uint64
	DRAMSize uint64
	IRAMSize uint64
	// IRAMReserved bytes at the bottom of iRAM belong to platform firmware;
	// overwriting them crashes the device (observed on the Tegra 3 tablet).
	IRAMReserved uint64

	Cache         cache.Config
	CacheLockable bool // firmware permits programming the lockdown register

	SecureWorld      bool // we can enter the TrustZone secure world
	HasCryptoAccel   bool
	BootloaderLocked bool
	ZeroIRAMOnBoot   bool

	// Physical probe points. ExposedBus means the DRAM bus is routed over
	// probeable traces (discrete DRAM packages, as on dev boards); a
	// package-on-package stack leaves nothing to clip onto. OpenDMAPort
	// means the device exposes a DMA-capable peripheral port an attacker
	// can drive without first unlocking the firmware.
	ExposedBus  bool
	OpenDMAPort bool

	Costs  sim.CostTable
	Energy sim.EnergyTable

	// Accelerator behaviour (Nexus 4): the crypto engine down-clocks while
	// the device is locked; the paper measured it 4× slower locked.
	AccelLockedSlowdown float64
}

// Tegra3Profile returns the NVidia Tegra 3 development board profile.
func Tegra3Profile() Profile {
	return Profile{
		Name:     "tegra3",
		CPUHz:    1_200_000_000,
		DRAMSize: 1 << 30,   // 1 GB
		IRAMSize: 256 << 10, // 256 KB
		// First 64 KB hold peripheral firmware state (§4.5).
		IRAMReserved:     64 << 10,
		Cache:            cache.Tegra3Config,
		CacheLockable:    true,
		SecureWorld:      true,
		HasCryptoAccel:   false,
		BootloaderLocked: false,
		ZeroIRAMOnBoot:   true,
		// The dev board routes DRAM over probeable traces and exposes
		// DMA-capable debug peripherals.
		ExposedBus:  true,
		OpenDMAPort: true,
		Costs: sim.CostTable{
			DRAMAccess:      60,
			L2Hit:           4,
			IRAMAccess:      4,
			DRAMBurst:       480,
			DMAWordCost:     4,
			ContextSwitch:   2400,
			PageFaultTrap:   1600,
			IRQToggle:       24,
			TLBFill:         2,
			BypassPenalty:   120,
			AESRoundCompute: 40,
		},
		Energy: sim.EnergyTable{
			DRAMAccessPJ:   2600,
			L2HitPJ:        1100,
			IRAMAccessPJ:   900,
			CPUCyclePJ:     700,
			PageZeroPerMB:  2.8e6, // 2.8 µJ per MB, the paper's measurement
			BatteryJ:       18000, // dev board; energy results come from Nexus
			IdleSystemPJPC: 90,
		},
	}
}

// Nexus4Profile returns the Google Nexus 4 profile.
func Nexus4Profile() Profile {
	return Profile{
		Name:         "nexus4",
		CPUHz:        1_500_000_000,
		DRAMSize:     2 << 30,   // 2 GB
		IRAMSize:     256 << 10, // modelled same size as Tegra
		IRAMReserved: 64 << 10,
		// The Nexus 4 has an L2, but its firmware is locked: lockdown
		// registers are secure-world-only and we have no secure-world entry.
		Cache:            cache.Config{Ways: 8, WaySize: 128 * 1024, LineSize: 32},
		CacheLockable:    false,
		SecureWorld:      false,
		HasCryptoAccel:   true,
		BootloaderLocked: true,
		ZeroIRAMOnBoot:   true,
		// Production phone: DRAM is package-on-package (no bus traces to
		// probe) and no DMA-capable port is reachable without unlocking.
		ExposedBus:  false,
		OpenDMAPort: false,
		Costs: sim.CostTable{
			DRAMAccess:         45,
			L2Hit:              2,
			IRAMAccess:         2,
			DRAMBurst:          360,
			DMAWordCost:        3,
			ContextSwitch:      1800,
			PageFaultTrap:      1200,
			IRQToggle:          18,
			TLBFill:            2,
			BypassPenalty:      90,
			AESRoundCompute:    16,
			AcceleratorSetup:   24000,
			AcceleratorPerByte: 38, // cycles per byte at full clock
		},
		Energy: sim.EnergyTable{
			DRAMAccessPJ:   2600,
			L2HitPJ:        1400,
			IRAMAccessPJ:   1100,
			CPUCyclePJ:     900,
			AccelByteP_J:   27500, // at full clock; ×slowdown when locked
			AccelSetupPJ:   2.0e7,
			PageZeroPerMB:  2.8e6,
			BatteryJ:       28700, // 2100 mAh × 3.8 V
			IdleSystemPJPC: 80,
		},
		AccelLockedSlowdown: 4.0,
	}
}

// SoC is a fully wired simulated platform.
type SoC struct {
	Prof  Profile
	Clock *sim.Clock
	Meter *sim.Meter
	RNG   *sim.RNG

	IRAM *mem.Device
	DRAM *mem.Device
	Bus  *bus.Bus
	L2   *cache.L2
	CPU  *cpu.CPU
	DMA  *dma.Controller
	TZ   *tz.Controller
	ROM  *firmware.BootROM
	UART *dma.UARTLoopback

	// ScreenLocked is the device lock state hardware exposes to the crypto
	// accelerator's clock governor.
	ScreenLocked bool

	// Trace and Metrics are the platform's observability layer; both are
	// nil until Instrument wires them through every component.
	Trace   *obs.Tracer
	Metrics *obs.Registry

	// instrumented records whether Instrument ran, as opposed to Metrics
	// being set bare (core does that to host its counters without paying for
	// per-transaction component instruments). Fork replicates the exact
	// wiring state so a clone observes neither more nor less than its parent.
	instrumented bool
}

// New builds and cold-boots a platform from a profile. seed drives every
// stochastic model on the platform.
func New(p Profile, seed int64) *SoC {
	s := &SoC{
		Prof:  p,
		Clock: sim.NewClock(p.CPUHz),
		Meter: &sim.Meter{},
		RNG:   sim.NewRNG(seed),
	}
	s.IRAM = mem.NewDevice("iram", mem.TechSRAM, IRAMBase, p.IRAMSize)
	s.DRAM = mem.NewDevice("dram", mem.TechDRAM, DRAMBase, p.DRAMSize)
	// Only DRAM sits behind the external bus; iRAM is on-SoC.
	s.Bus = bus.New(s.Clock, s.Meter, &p.Costs, &p.Energy, mem.NewMap(s.DRAM))
	s.L2 = cache.New(p.Cache, s.Clock, s.Meter, &p.Costs, &p.Energy, s.Bus)
	s.TZ = tz.New(p.SecureWorld, s.RNG)
	s.CPU = cpu.New(s.Clock, s.Meter, &p.Costs, &p.Energy, s.L2, s.Bus, s.IRAM)
	s.CPU.Guard = s.TZ
	s.DMA = dma.New("dma0", s.Bus, mem.NewMap(s.IRAM), s.Clock, &p.Costs, s.TZ)
	s.UART = &dma.UARTLoopback{}
	s.ROM = &firmware.BootROM{
		VendorKey:        "vendor",
		BootloaderLocked: p.BootloaderLocked,
		ZeroIRAMOnBoot:   p.ZeroIRAMOnBoot,
	}
	s.ROM.ColdBoot(s.IRAM, s.L2)
	s.rekeyCacheIndex()
	return s
}

// rekeyCacheIndex draws a fresh key for the randomized index permutation
// (profiles with Cache.RandomizedIndex set). Called once per boot, on the
// empty post-reset cache: the defence's security argument is exactly that
// the address→set mapping does not survive a power cycle.
func (s *SoC) rekeyCacheIndex() {
	if s.Prof.Cache.RandomizedIndex {
		s.L2.SetIndexKey(s.RNG.Uint64())
	}
}

// FreezeBase pins the platform as the immutable base of a fork population:
// both memory stores are sealed and the L2 is pinned read-only
// (FreezeShared), so concurrent Forks clone it, and Deflates compare
// against it, without any parent-side mutation. The frozen SoC must never
// run again. Idempotent.
func (s *SoC) FreezeBase() {
	s.IRAM.Store().Seal()
	s.DRAM.Store().Seal()
	s.L2.FreezeShared()
}

// Deflate re-encodes the platform's heavyweight state as a delta against a
// FreezeBase'd base platform: both memory stores are rebased onto the base's
// sealed page maps (keeping only diverged pages, see mem.Store.Rebase) and
// the L2's dense arrays are replaced by a sparse line delta (released to the
// clone pool, see cache.L2.Deflate). Contents are unchanged — the next Fork
// reconstructs a byte-identical platform — only the resting memory cost
// drops from O(everything the world ever touched) to O(divergence from the
// base). Returns an estimate of the bytes still retained privately.
//
// Only an exclusively owned, no-longer-running platform (a parked snapshot)
// may be deflated; after Deflate, Fork and Release are the only legal
// operations until a Fork re-inflates a dense copy.
func (s *SoC) Deflate(base *SoC) int64 {
	n := int64(s.IRAM.Rebase(base.IRAM)) + int64(s.DRAM.Rebase(base.DRAM))
	bytes := n*mem.PageSize + s.L2.Deflate(base.L2)
	// Everything else on the platform (CPU registers, TZ state, RNG, bus
	// stats, registry clone) is a few KB of flat structs; charge a nominal
	// constant so the gauge reflects per-device floor cost too.
	return bytes + 4096
}

// FootprintBytes estimates the platform's resting memory cost in its
// current encoding, on the same scale Deflate reports: resident page bytes
// of both stores plus the L2's footprint (dense arrays, or the sparse delta
// once deflated) plus the flat-struct constant. A full-parked platform is
// measured by this; a delta-parked one by Deflate's return — the ratio is
// the fleet's bytes-per-parked-device reduction.
func (s *SoC) FootprintBytes() int64 {
	n := int64(s.IRAM.ResidentPages() + s.DRAM.ResidentPages())
	return n*mem.PageSize + s.L2.FootprintBytes() + 4096
}

// Fork returns an independent deep copy of the platform. Memory contents are
// shared copy-on-write with this SoC (both sides seal their stores), so a
// fork costs O(live metadata), not O(DRAM size). The clone continues the
// parent's streams exactly: clock cycles, accumulated energy, RNG position,
// cache contents and lockdown state, bus statistics, and register state all
// carry over, so a forked platform replays byte-identically to one that
// reached the same point from a cold boot.
//
// Not carried: bus monitors, fault injectors, the CPU's address space and
// fault handler, and observability wiring — those belong to the software
// stack above (kernel, attack harnesses), which re-attaches its own on the
// fork. The Metrics registry is deep-copied with no bound owner; Trace is
// shared (it is internally synchronised and bounded).
func (s *SoC) Fork() *SoC {
	n := &SoC{
		Prof:         s.Prof,
		Clock:        s.Clock.Clone(),
		Meter:        s.Meter.Clone(),
		RNG:          s.RNG.Clone(),
		ScreenLocked: s.ScreenLocked,
	}
	n.IRAM = s.IRAM.Fork()
	n.DRAM = s.DRAM.Fork()
	n.Bus = s.Bus.Clone(n.Clock, n.Meter, mem.NewMap(n.DRAM))
	n.L2 = s.L2.Clone(n.Clock, n.Meter, n.Bus)
	n.TZ = s.TZ.Clone()
	n.CPU = s.CPU.Clone(n.Clock, n.Meter, n.L2, n.Bus, n.IRAM)
	n.CPU.Guard = n.TZ
	n.DMA = s.DMA.Clone(n.Bus, mem.NewMap(n.IRAM), n.Clock, n.TZ)
	n.UART = s.UART.Clone()
	rom := *s.ROM
	n.ROM = &rom
	if s.instrumented {
		n.Instrument(s.Trace, s.Metrics.Clone())
	} else if s.Metrics != nil {
		n.Metrics = s.Metrics.Clone()
	}
	return n
}

// Release recycles the platform's fork-private allocations (today: the L2
// metadata arrays) into the clone pool and leaves the SoC unusable. Only
// an exclusive owner — a fork or hand-off nobody else references — may
// call it; memory pages stay untouched because they may be shared
// copy-on-write with live forks.
func (s *SoC) Release() {
	s.L2.Release()
}

// Instrument wires an observability layer through every hardware component.
// Either argument may be nil (tracing without metrics, or vice versa).
// Call it once, at setup: components resolve their instruments here and the
// hot paths then run nil-gated.
func (s *SoC) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	s.Trace = tr
	s.Metrics = reg
	s.instrumented = true
	s.Bus.SetObs(tr, reg)
	s.L2.SetObs(tr, reg)
	s.CPU.SetObs(tr, reg)
	s.DMA.SetObs(tr, reg)
}

// Tegra3 returns a booted Tegra 3 development board.
func Tegra3(seed int64) *SoC { return New(Tegra3Profile(), seed) }

// Nexus4 returns a booted Nexus 4.
func Nexus4(seed int64) *SoC { return New(Nexus4Profile(), seed) }

// Compute charges busy CPU cycles (time and dynamic energy). Workload and
// crypto models use it for their ALU work.
func (s *SoC) Compute(cycles uint64) {
	s.Clock.Advance(cycles)
	s.Meter.Charge(float64(cycles) * s.Prof.Energy.CPUCyclePJ)
}

// AccelEncryptCost returns the cycles and picojoules the crypto accelerator
// takes for n bytes in the current power state. The engine down-clocks while
// the screen is locked — the effect the paper discovered when its 4 KB page
// encryptions ran 4× slower than expected.
func (s *SoC) AccelEncryptCost(n int) (cycles uint64, pj float64) {
	if !s.Prof.HasCryptoAccel {
		panic("soc: platform has no crypto accelerator")
	}
	perByte := s.Prof.Costs.AcceleratorPerByte
	bytePJ := s.Prof.Energy.AccelByteP_J
	if s.ScreenLocked && s.Prof.AccelLockedSlowdown > 1 {
		perByte *= s.Prof.AccelLockedSlowdown
		bytePJ *= s.Prof.AccelLockedSlowdown
	}
	cycles = s.Prof.Costs.AcceleratorSetup + uint64(perByte*float64(n))
	pj = s.Prof.Energy.AccelSetupPJ + bytePJ*float64(n)
	return cycles, pj
}

// UsableIRAM returns the iRAM range available to the OS (beyond the
// firmware-reserved prefix).
func (s *SoC) UsableIRAM() (base mem.PhysAddr, size uint64) {
	return IRAMBase + mem.PhysAddr(s.Prof.IRAMReserved), s.Prof.IRAMSize - s.Prof.IRAMReserved
}

// OSReboot models a warm reboot into the given image: no power loss, so no
// decay and no ROM zeroing — but the new image scribbles over part of DRAM
// and the kernel reinitialises the caches. Returns firmware.ErrUnsignedImage
// if secure boot rejects the image.
func (s *SoC) OSReboot(img firmware.Image) error {
	if err := s.ROM.VerifyImage(img); err != nil {
		return err
	}
	// Kernel init: clean nothing, invalidate everything (fresh cache state).
	s.L2.SetAllocMask(s.L2.AllWaysMask())
	s.L2.InvalidateWays(s.L2.AllWaysMask())
	s.CPU.ZeroRegs()
	s.TZ.ClearProtections()
	firmware.Scribble(s.DRAM, s.RNG, img)
	return nil
}

// PowerCut models losing power for d seconds at temperature tempC, then
// cold-booting through the ROM: DRAM and iRAM decay per their technology
// curves, all volatile SoC state (cache lines, registers, lock state) is
// lost outright, and the ROM then zeroes iRAM and resets the cache.
func (s *SoC) PowerCut(seconds, tempC float64) {
	remanence.Decay(s.DRAM, s.RNG, seconds, tempC)
	remanence.Decay(s.IRAM, s.RNG, seconds, tempC)
	// SoC-internal state does not survive at all: cache SRAM loses its tags
	// within microseconds of losing power.
	s.L2.Reset()
	s.CPU.ZeroRegs()
	s.TZ.ClearProtections()
	s.ROM.ColdBoot(s.IRAM, s.L2)
	s.rekeyCacheIndex()
}

// GlitchedReset models a fault-injection attack on the reset path (the
// attack class of "Fault Attacks on Encrypted General Purpose Compute
// Platforms"): power is lost for the given seconds, but a well-timed
// voltage glitch diverts the ROM's cold-boot code, skipping both
// secure-boot image verification and the vendor firmware's iRAM zeroing.
// Volatile SoC state (cache lines, registers, TrustZone protections) is
// still physically lost — that part is physics, not firmware.
func (s *SoC) GlitchedReset(seconds float64, img firmware.Image) {
	remanence.Decay(s.DRAM, s.RNG, seconds, remanence.RoomTempC)
	remanence.Decay(s.IRAM, s.RNG, seconds, remanence.RoomTempC)
	s.L2.Reset()
	s.CPU.ZeroRegs()
	s.TZ.ClearProtections()
	s.rekeyCacheIndex()
	firmware.Scribble(s.DRAM, s.RNG, img)
}

// Reflash models the reflash cold-boot variant: a tap of the reset button
// (≈50 ms power blip) followed by the ROM boot path into a flashing
// environment that dumps memory without booting a full OS. If the
// bootloader is locked and the image unsigned, the reflash is refused
// unless the attacker unlocks the bootloader — which wipes user data; the
// caller models that choice.
func (s *SoC) Reflash(img firmware.Image) error {
	if err := s.ROM.VerifyImage(img); err != nil {
		return err
	}
	s.PowerCut(0.05, remanence.RoomTempC)
	firmware.Scribble(s.DRAM, s.RNG, img)
	return nil
}

// HeldReset models holding the reset button for the given seconds — the
// paper's "2 second reset" — then booting the given image.
func (s *SoC) HeldReset(seconds float64, img firmware.Image) error {
	if err := s.ROM.VerifyImage(img); err != nil {
		return err
	}
	s.PowerCut(seconds, remanence.RoomTempC)
	firmware.Scribble(s.DRAM, s.RNG, img)
	return nil
}
