// Package check is the reusable confidentiality model-checker for the
// simulated Sentry system, promoted out of core's invariant test into a
// schedule explorer any package (and the sentrybench CLI) can drive.
//
// It explores randomised schedules over an operation alphabet spanning
// kernel, SoC, environment, and attacker actions, and after every step
// enforces the paper's central invariant — while the device is locked, no
// plaintext sensitive byte is:
//
//	(bus)        carried over the external memory bus,
//	(dram)       resident in the DRAM chips,
//	(writeback)  one legal masked write-back away from DRAM,
//	(dma)        readable by a DMA-capable peripheral,
//	(remanence)  recoverable from the post-power-loss memory image, nor is
//	(key)        the volatile root key recoverable from that image.
//
// Configs with a cache-attack profile (Config.Cache/Attacks) add two more
// clauses, judged by the Prime+Probe / Evict+Reload / occupancy drivers in
// internal/attack:
//
//	(cache-timing)  a cache-timing attacker recovers the victim's secret
//	                set-access pattern (the PIN-digit table walk), and
//	(occupancy)     the locked-way count reveals live session state.
//
// Configs with a DFA adversary (Config.DFA) add one more, judged by the
// differential-fault-analysis pipeline in internal/attack:
//
//	(dfa-key-recovery)  an attacker who glitches AES round state
//	                    mid-encryption recovers the full AES-128 key from
//	                    correct/faulty ciphertext pairs.
//
// Any violating schedule is reduced by greedy delta debugging to a minimal
// reproducer, printable as a replayable seed + op list (see campaign.go).
package check

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"sentry/internal/aes"
	"sentry/internal/attack"
	"sentry/internal/bus"
	"sentry/internal/core"
	"sentry/internal/faults"
	"sentry/internal/firmware"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/obs"
	"sentry/internal/onsoc"
	"sentry/internal/remanence"
	"sentry/internal/sim"
	"sentry/internal/soc"
)

// Defences selects which of the paper's defence layers are active. The
// positive controls disable exactly one each, and the checker must then
// find the secret.
type Defences struct {
	// IRAMZeroOnBoot: the vendor firmware clears iRAM on the cold-boot path.
	IRAMZeroOnBoot bool
	// LockFlush: encrypt-on-lock ends with a masked clean+invalidate.
	LockFlush bool
	// ZeroOnFree: lock waits for the freed-page zeroing thread.
	ZeroOnFree bool
}

// AllDefences returns the fully defended configuration.
func AllDefences() Defences {
	return Defences{IRAMZeroOnBoot: true, LockFlush: true, ZeroOnFree: true}
}

// Cache-attack profile names for Config.Cache.
const (
	// CacheInsecure: the victim's PIN lookup table lives in plain cacheable
	// DRAM with a stock cache — the negative control that must lose.
	CacheInsecure = "insecure"
	// CacheBaseline: the paper's on-SoC placement — a locked L2 way on
	// lockable platforms (tegra3), iRAM (off the L2 entirely) elsewhere.
	CacheBaseline = "baseline"
	// CacheAutoLock: table in DRAM, but the cache models AutoLock semantics
	// (cross-core evictions of held lines are blocked).
	CacheAutoLock = "autolock"
	// CacheRandomized: table in DRAM, but the cache's set index is a keyed
	// per-boot permutation.
	CacheRandomized = "randomized"
	// CacheReserved: the baseline placement plus a constant locked-way
	// budget reserved at boot (core.Config.ReservedWays) — the mitigation
	// for the occupancy channel. Session lock/unlock cycles served from the
	// budget never move the externally observable lock state.
	CacheReserved = "reserved"
)

// Attacker names for Config.Attacks.
const (
	AttackPrimeProbe  = "prime-probe"
	AttackEvictReload = "evict-reload"
	AttackOccupancy   = "occupancy"
)

// DFA placement names for Config.DFA: where the glitch-targeted victim AES
// engine's arena lives. The placement decides reachability — a DRAM arena
// is disturbable by the fault rig, the paper's iRAM placement is not.
const (
	DFAInDRAM = "dram"
	DFAInIRAM = "iram"
)

// reservedWayBudget is the constant way budget CacheReserved locks at boot:
// one way for on-SoC allocations (victim table, session arenas) plus one
// spare so a live session's extra lock is still served invisibly.
const reservedWayBudget = 2

// Config parameterises one checking world.
type Config struct {
	Platform string // "tegra3" or "nexus4"
	Defences Defences
	Faults   faults.Profile
	// Cache selects the cache-timing victim/defence profile (Cache*
	// constants). Empty means no victim table and no attack surface — the
	// default for every pre-existing campaign, which stays byte-identical.
	Cache string
	// Attacks is a comma-separated list of enabled cache attackers
	// (Attack* constants); each becomes an op in the generation alphabet.
	Attacks string
	// DFA enables the differential-fault-analysis adversary against a
	// victim AES engine placed per the named profile (DFAIn* constants).
	// Empty means no victim engine and no dfa ops — the default for every
	// pre-existing campaign, which stays byte-identical.
	DFA string
	// Counter selects the victim engine's fault-detection countermeasure
	// ("", "none", "redundant", "tag" — see aes.CountermeasureByName).
	Counter string
	// Steps bounds generated schedule length; DefaultSteps when zero.
	Steps int
	// OpsCounter, when set, counts every op executed by any world built from
	// this config (forks inherit it). The shrink-checkpoint tests and the
	// explorer's coverage metrics use it to account ops actually replayed
	// against schedules merely enumerated; a nil counter costs nothing.
	OpsCounter *obs.Counter
}

// attackList splits the Attacks field into attacker names; empty → nil.
func (c Config) attackList() []string {
	if c.Attacks == "" {
		return nil
	}
	return strings.Split(c.Attacks, ",")
}

func (c Config) hasAttack(name string) bool {
	for _, a := range c.attackList() {
		if a == name {
			return true
		}
	}
	return false
}

// validAttack reports whether name is a known attacker name.
func validAttack(name string) bool {
	switch name {
	case AttackPrimeProbe, AttackEvictReload, AttackOccupancy:
		return true
	}
	return false
}

// validCacheProfile reports whether name is a known Config.Cache value.
func validCacheProfile(name string) bool {
	switch name {
	case "", CacheInsecure, CacheBaseline, CacheAutoLock, CacheRandomized, CacheReserved:
		return true
	}
	return false
}

// validDFAProfile reports whether name is a known Config.DFA value.
func validDFAProfile(name string) bool {
	switch name {
	case "", DFAInDRAM, DFAInIRAM:
		return true
	}
	return false
}

// DefaultSteps is the generated schedule length bound.
const DefaultSteps = 80

func (c Config) steps() int {
	if c.Steps > 0 {
		return c.Steps
	}
	return DefaultSteps
}

// Violation reports where the invariant broke.
type Violation struct {
	// Clause is "bus", "dram", "writeback", "dma", "remanence", "key",
	// "cache-timing", "occupancy", or "dfa-key-recovery".
	Clause string
	Detail string
	Step   int
	Op     Op
}

func (v *Violation) String() string {
	return fmt.Sprintf("step %d (%s): clause %s: %s", v.Step, v.Op, v.Clause, v.Detail)
}

// PIN unlocks every world's kernel; a platform booted for Host must be
// built with it.
const PIN = "4321"

// marker is the plaintext every world plants in its sensitive processes;
// finding it where an attacker could read it is a violation.
var marker = []byte("INVARIANT-MARKER-XYZZY")

const (
	badPIN  = "0000"
	fgPages = 8
	bgPages = 16
	// blipSeconds is the checker's power-cut duration: the paper's ~50 ms
	// reset blip, which keeps nearly all remanent bits — the worst case
	// for the defender and therefore the right default for checking.
	blipSeconds = 0.05
	// heldResetSeconds matches the paper's "2 second reset" decay window.
	heldResetSeconds = 2.0
	// glitchSeconds: a reset-glitch rig cycles power in well under a second.
	glitchSeconds = 0.5
	// fuzzBudget is how many decayed bytes a remanence-image marker match
	// may tolerate and still count as recoverable plaintext.
	fuzzBudget = 4
)

// Cache-attack geometry. The victim's lookup table is one line per entry;
// its secret (the PIN-digit walk) selects which entries it touches. All
// DRAM regions live inside the kernel-reserved low 64 MB, above the
// pressure op's footprint (< +0x3000000) and below user frames, and the
// attacker regions are base-congruent with the DRAM table (same base set).
const (
	victimEntries  = 16
	victimTableOff = 0x3000000 // victim table (DRAM profiles): sets 0..15
	occProbeOff    = 0x3210000 // occupancy probe: set 2048, clear of the rest
	evictRegionOff = 0x3400000 // Evict+Reload eviction sets: 2×Ways×entries lines
	primeRegionOff = 0x3800000 // Prime+Probe prime lines: 2×Ways×entries lines
	dfaArenaOff    = 0x3C00000 // DFA victim engine arena (Config.DFA "dram")
)

// attackState is the cache-attack surface of a world: where the victim
// table lives, what the victim actually touches, the boot-time locked-way
// baseline, the bound drivers, and the deterministic probe-timing log.
type attackState struct {
	table      mem.PhysAddr
	trueSet    uint32 // entries the PIN walk touches — what an attacker must recover
	baseLocked int    // locked ways at world setup (public knowledge)
	pp         *attack.PrimeProbe
	er         *attack.EvictReload
	occ        *attack.OccupancyProbe
	log        []string
}

// dfaFaultCT is one banked faulty ciphertext and the state byte the glitch
// targeted (kept for the attack log; key recovery classifies pairs itself).
type dfaFaultCT struct {
	pos int
	ct  [16]byte
}

// dfaState is the fault-injection surface of a world: the victim AES engine
// (placed per Config.DFA, defended per Config.Counter), its current key
// epoch, the attacker's bank of faulty ciphertexts, and a deterministic
// attack log. A detected fault fail-safe aborts and rekeys the victim, which
// empties the bank — the defender's whole win condition.
type dfaState struct {
	eng       *onsoc.AES
	key       []byte
	plain     [16]byte
	epoch     uint64
	reachable bool // the fault rig can disturb the arena (DRAM placement)
	faulty    []dfaFaultCT
	detected  int // countermeasure-detected faults (fail-safe aborts)
	rekeys    int
	log       []string
}

// World is one instantiated platform + Sentry + workload under check.
// NewWorld and Host build one. A literal holding only S, K and Sn is a bare
// platform: it can Fork, FreezeBase and serve as a Deflate base but runs no
// ops; the fleet keeps its shared base image that way.
type World struct {
	Cfg  Config
	Seed int64

	S  *soc.SoC
	K  *kernel.Kernel
	Sn *core.Sentry

	fg, bg         *kernel.Process
	fgBase, bgBase mmu.VirtAddr

	marker  []byte
	volKey0 []byte // volatile root key as generated at boot (pre-Zeroize)
	inj     *faults.Injector
	probe   *busProbe

	atk *attackState // nil unless Cfg.Cache selects a cache-attack profile
	dfa *dfaState    // nil unless Cfg.DFA places a glitch-targeted victim

	bgOn      bool
	step      int
	dead      bool
	cutLocked bool // the device was locked when power was lost
}

// busProbe latches the first locked-period plaintext sighting on the
// external bus — clause (bus) of the invariant.
type busProbe struct {
	w       *World
	tripped string
}

func (p *busProbe) Observe(tx bus.Transaction) {
	if p.tripped != "" || p.w.K.State() == kernel.Unlocked {
		return
	}
	if bytes.Contains(tx.Data, p.w.marker) {
		p.tripped = fmt.Sprintf("%s %#x (%d bytes) at step %d",
			tx.Op, uint64(tx.Addr), len(tx.Data), p.w.step)
	}
}

// NewWorld builds a deterministic world for (cfg, seed): platform, kernel,
// Sentry with the configured defences, the sensitive workload (see Host), a
// bus probe where the platform exposes the bus, and a fault injector when the
// profile is active.
func NewWorld(cfg Config, seed int64) *World {
	var prof soc.Profile
	switch cfg.Platform {
	case "tegra3", "":
		prof = soc.Tegra3Profile()
	case "nexus4":
		prof = soc.Nexus4Profile()
	default:
		panic(fmt.Sprintf("check: unknown platform %q", cfg.Platform))
	}
	prof.ZeroIRAMOnBoot = cfg.Defences.IRAMZeroOnBoot
	switch cfg.Cache {
	case "", CacheInsecure, CacheBaseline, CacheReserved:
	case CacheAutoLock:
		prof.Cache.AutoLock = true
	case CacheRandomized:
		prof.Cache.RandomizedIndex = true
	default:
		panic(fmt.Sprintf("check: unknown cache profile %q", cfg.Cache))
	}
	if !validDFAProfile(cfg.DFA) {
		panic(fmt.Sprintf("check: unknown dfa profile %q", cfg.DFA))
	}
	if _, ok := aes.CountermeasureByName(cfg.Counter); !ok {
		panic(fmt.Sprintf("check: unknown countermeasure %q", cfg.Counter))
	}
	s := soc.New(prof, seed)
	k := kernel.New(s, PIN)
	k.IdleLockSeconds = 900
	reserved := 0
	if cfg.Cache == CacheReserved {
		reserved = reservedWayBudget
	}
	sn, err := core.New(k, core.Config{
		NoLockFlush:   !cfg.Defences.LockFlush,
		NoDrainOnLock: !cfg.Defences.ZeroOnFree,
		ReservedWays:  reserved,
	})
	if err != nil {
		panic(fmt.Sprintf("check: world build failed: %v", err))
	}
	w, err := Host(cfg, seed, s, k, sn)
	if err != nil {
		panic(fmt.Sprintf("check: world setup failed: %v", err))
	}
	if cfg.Cache != "" {
		w.setupCacheAttack()
	}
	if prof.ExposedBus {
		w.probe = &busProbe{w: w}
		s.Bus.Attach(w.probe)
	}
	// A DFA config needs the injector as the cipher's round-fault hook even
	// when the probabilistic fault profile is inactive.
	if cfg.Faults.Active() || cfg.DFA != "" {
		w.AttachFaults(seed*2654435761 + 97)
	}
	if cfg.DFA != "" {
		w.setupDFA()
	}
	return w
}

// Host runs the world setup on a platform that is already booted with PIN:
// it captures the volatile root key as it stands, creates a sensitive
// foreground and a sensitive background process, and fills them with the
// plaintext marker. The world has no bus probe, attack surface or fault
// injector; AttachFaults adds the injector. The fleet hosts each device this
// way on its rekeyed fork of the shared base image.
func Host(cfg Config, seed int64, s *soc.SoC, k *kernel.Kernel, sn *core.Sentry) (*World, error) {
	w := &World{
		Cfg: cfg, Seed: seed, S: s, K: k, Sn: sn,
		marker:  marker,
		volKey0: sn.Keys().VolatileKey(),
	}
	w.fg = k.NewProcess("fg", true, false)
	w.bg = k.NewProcess("bg", true, true)
	var err error
	if w.fgBase, err = k.MapAnon(w.fg, fgPages); err != nil {
		return nil, err
	}
	if w.bgBase, err = k.MapAnon(w.bg, bgPages); err != nil {
		return nil, err
	}
	if err := w.fill(w.fg, w.fgBase, fgPages); err != nil {
		return nil, err
	}
	if err := w.fill(w.bg, w.bgBase, bgPages); err != nil {
		return nil, err
	}
	return w, nil
}

// AttachFaults gives the world a fault injector for Cfg.Faults seeded with
// seed, wired into the platform when the profile is active.
func (w *World) AttachFaults(seed int64) {
	w.inj = faults.New(w.Cfg.Faults, seed)
	if w.Cfg.Faults.Active() {
		w.inj.Attach(w.Sn)
	}
}

func (w *World) fill(p *kernel.Process, base mmu.VirtAddr, pages int) error {
	w.K.Switch(p)
	for i := 0; i < pages; i++ {
		line := append(append([]byte{}, w.marker...), byte(i))
		if err := w.S.CPU.Store(base+mmu.VirtAddr(i*mem.PageSize), line); err != nil {
			return fmt.Errorf("marker fill: %v", err)
		}
	}
	return nil
}

// setupCacheAttack places the victim's lookup table per the configured
// cache profile, records the boot-time locked-way baseline, and binds the
// enabled attack drivers. Runs before the fault injector attaches, so
// baseline setup (which locks a way on lockable platforms) is never
// perturbed.
func (w *World) setupCacheAttack() {
	geo := w.S.L2.Config()
	st := &attackState{}
	if w.Cfg.Cache == CacheBaseline || w.Cfg.Cache == CacheReserved {
		if lk := w.Sn.Locker(); lk != nil {
			// Paper §4.5 placement: the table lives in a locked way's alias
			// region, resident and unevictable. Over-allocate one line so the
			// base can be rounded up to a line boundary.
			raw, err := lk.Alloc(uint64((victimEntries + 1) * geo.LineSize))
			if err != nil {
				panic(fmt.Sprintf("check: baseline victim table alloc failed: %v", err))
			}
			mask := mem.PhysAddr(geo.LineSize - 1)
			st.table = (raw + mask) &^ mask
		} else {
			// Non-lockable platform (nexus4): iRAM pinning — the table never
			// touches the L2 at all.
			st.table = soc.IRAMBase + mem.PhysAddr(w.S.Prof.IRAMSize-mem.PageSize)
		}
	} else {
		// insecure / autolock / randomized: plain cacheable DRAM in the
		// kernel-reserved region, warmed by the victim at boot.
		st.table = soc.DRAMBase + victimTableOff
		var b [4]byte
		for e := 0; e < victimEntries; e++ {
			w.S.CPU.ReadPhys(st.table+mem.PhysAddr(e*geo.LineSize), b[:])
		}
	}
	for _, ch := range []byte(PIN) {
		st.trueSet |= 1 << (int(ch-'0') % victimEntries)
	}
	// The locked-way count at setup is public (a fixed hardware reservation);
	// the occupancy clause asks whether it ever *changes* with session state.
	st.baseLocked = geo.Ways - bits.OnesCount32(w.S.L2.AllocMask())
	w.atk = st
	w.bindAttackDrivers()
}

// bindAttackDrivers (re)builds the enabled attack drivers against the
// world's current SoC; Fork calls it to bind the forked SoC.
func (w *World) bindAttackDrivers() {
	st := w.atk
	if w.Cfg.hasAttack(AttackPrimeProbe) {
		st.pp = attack.NewPrimeProbe(w.S, st.table, soc.DRAMBase+primeRegionOff, victimEntries)
	}
	if w.Cfg.hasAttack(AttackEvictReload) {
		st.er = attack.NewEvictReload(w.S, st.table, soc.DRAMBase+evictRegionOff, victimEntries)
	}
	if w.Cfg.hasAttack(AttackOccupancy) {
		st.occ = attack.NewOccupancyProbe(w.S, soc.DRAMBase+occProbeOff)
	}
}

// victimWalk is the secret-dependent victim workload the cache-timing
// attackers target: the PIN-verify table walk, one lookup per PIN digit,
// run as core 0. Which entries it touches is exactly the secret.
func (w *World) victimWalk() {
	var b [4]byte
	geo := w.S.L2.Config()
	for _, ch := range []byte(PIN) {
		e := int(ch-'0') % victimEntries
		w.S.CPU.ReadPhys(w.atk.table+mem.PhysAddr(e*geo.LineSize), b[:])
	}
}

// setupDFA builds the glitch-targeted victim AES engine per Config.DFA and
// points the fault injector at its encryption rounds.
func (w *World) setupDFA() {
	st := &dfaState{}
	copy(st.plain[:], "dfa-victim-block")
	w.dfa = st
	w.dfaBuildEngine()
}

// dfaKey derives the victim key for one epoch: a pure function of
// (seed, epoch), so forks, replays, and rekeys all agree byte-for-byte.
func (w *World) dfaKey(epoch uint64) []byte {
	rng := sim.NewRNG(w.Seed*6364136223846793005 + int64(epoch)*1442695040888963407 + 20260807)
	key := make([]byte, 16)
	rng.Read(key)
	return key
}

// dfaBuildEngine (re)creates the victim engine for the current key epoch.
// Placement decides reachability: a DRAM arena is disturbable by the rig,
// the paper's iRAM placement is physically out of its reach.
func (w *World) dfaBuildEngine() {
	st := w.dfa
	st.key = w.dfaKey(st.epoch)
	var eng *onsoc.AES
	var err error
	switch w.Cfg.DFA {
	case DFAInIRAM:
		eng, err = onsoc.NewInIRAM(w.S, w.Sn.IRAM(), st.key)
	default: // DFAInDRAM
		eng, err = onsoc.NewGeneric(w.S, soc.DRAMBase+dfaArenaOff, st.key, false)
	}
	if err != nil {
		panic(fmt.Sprintf("check: dfa victim engine build failed: %v", err))
	}
	cm, _ := aes.CountermeasureByName(w.Cfg.Counter)
	eng.SetCountermeasure(cm)
	eng.Cipher.SetRoundFault(w.inj)
	st.reachable = eng.ArenaBase() >= soc.DRAMBase
	st.eng = eng
}

// dfaRekey is the fail-safe response to a detected fault: release the old
// arena, roll the key epoch, and drop the attacker's banked ciphertexts —
// pairs across epochs never converge.
func (w *World) dfaRekey() {
	st := w.dfa
	_ = st.eng.Release()
	st.epoch++
	st.rekeys++
	st.faulty = nil
	w.dfaBuildEngine()
}

// dfaFault is the attacker's glitch op: arm a one-byte fault in the state
// entering the last MixColumns round and encrypt a fixed block, three mask
// values per op. A countermeasure that catches the fault aborts the op and
// rekeys the victim; otherwise the faulty ciphertext joins the bank.
func (w *World) dfaFault(op Op) {
	st := w.dfa
	round := st.eng.Cipher.Rounds() - 1
	pos := int(op.Arg) % 16
	base := byte(1 + (op.Arg>>4)%253)
	var ct [16]byte
	var iv [16]byte
	for k := 0; k < 3; k++ {
		mask := base + byte(k)
		w.inj.ArmDFA(round, pos, mask, st.reachable)
		err := st.eng.EncryptCBC(ct[:], st.plain[:], iv[:])
		w.inj.DisarmDFA()
		if err != nil {
			var fd *aes.FaultDetectedError
			if !errors.As(err, &fd) {
				panic(fmt.Sprintf("check: dfa victim encrypt failed: %v", err))
			}
			st.detected++
			st.log = append(st.log, fmt.Sprintf(
				"dfa step %d: %s countermeasure detected fault at byte %d mask %#02x: fail-safe abort, rekey to epoch %d",
				w.step, fd.Countermeasure, pos, mask, st.epoch+1))
			w.dfaRekey()
			return
		}
		st.faulty = append(st.faulty, dfaFaultCT{pos: pos, ct: ct})
	}
	st.log = append(st.log, fmt.Sprintf(
		"dfa step %d: glitched byte %d masks %#02x..%#02x (reachable=%v, bank=%d)",
		w.step, pos, base, base+2, st.reachable, len(st.faulty)))
}

// dfaCollect is the attacker's analysis op: encrypt the same block cleanly,
// pair it against every banked faulty ciphertext, and run the DFA key
// recovery. Recovering the victim's actual key is the dfa-key-recovery
// violation.
func (w *World) dfaCollect(op Op) *Violation {
	st := w.dfa
	var correct [16]byte
	var iv [16]byte
	if err := st.eng.EncryptCBC(correct[:], st.plain[:], iv[:]); err != nil {
		panic(fmt.Sprintf("check: dfa clean encrypt failed: %v", err))
	}
	var pairs []attack.DFAPair
	for _, f := range st.faulty {
		if f.ct != correct {
			pairs = append(pairs, attack.DFAPair{Correct: correct, Faulty: f.ct})
		}
	}
	key, ok := attack.RecoverKeyDFA(pairs)
	st.log = append(st.log, fmt.Sprintf(
		"dfa step %d: collect over %d pairs (epoch %d): recovered=%v",
		w.step, len(pairs), st.epoch, ok))
	if ok && bytes.Equal(key, st.key) {
		return &Violation{Clause: "dfa-key-recovery",
			Detail: fmt.Sprintf("DFA recovered the victim's full AES-128 key from %d correct/faulty ciphertext pairs", len(pairs)),
			Step:   w.step, Op: op}
	}
	return nil
}

// DFADetected returns how many faults the victim's countermeasure caught
// (each one a fail-safe abort + rekey); zero without a DFA config.
func (w *World) DFADetected() int {
	if w.dfa == nil {
		return 0
	}
	return w.dfa.detected
}

// DFARekeys returns how many times the victim rolled its key epoch.
func (w *World) DFARekeys() int {
	if w.dfa == nil {
		return 0
	}
	return w.dfa.rekeys
}

// AttackLog returns the deterministic attack trace accumulated by the
// cache-attack and DFA ops — one line per attack round, byte-identical for a
// given (config, seed, schedule) at any parallelism.
func (w *World) AttackLog() []string {
	var out []string
	if w.atk != nil {
		out = append(out, w.atk.log...)
	}
	if w.dfa != nil {
		out = append(out, w.dfa.log...)
	}
	return out
}

// Fork returns an independent copy of this world. Memory is shared
// copy-on-write with the parent; clock, energy, RNG position, fault-injector
// stream, and all kernel/Sentry state carry over, so the fork replays any op
// sequence byte-identically to a cold-booted world that reached this point.
// The bus probe and fault injector are re-attached as fresh clones bound to
// the forked world.
func (w *World) Fork() *World {
	s2 := w.S.Fork()
	k2, pm := w.K.Clone(s2)
	sn2, err := w.Sn.Clone(k2, pm)
	if err != nil {
		panic(fmt.Sprintf("check: world fork failed: %v", err))
	}
	n := &World{
		Cfg: w.Cfg, Seed: w.Seed, S: s2, K: k2, Sn: sn2,
		fg: pm[w.fg], bg: pm[w.bg],
		fgBase: w.fgBase, bgBase: w.bgBase,
		marker:  w.marker,
		volKey0: append([]byte(nil), w.volKey0...),
		bgOn:    w.bgOn, step: w.step, dead: w.dead, cutLocked: w.cutLocked,
	}
	if w.atk != nil {
		st := *w.atk
		st.log = append([]string(nil), w.atk.log...)
		st.pp, st.er, st.occ = nil, nil, nil
		n.atk = &st
		n.bindAttackDrivers()
	}
	if w.probe != nil {
		n.probe = &busProbe{w: n, tripped: w.probe.tripped}
		s2.Bus.Attach(n.probe)
	}
	if w.inj != nil {
		n.inj = w.inj.Clone()
		if w.Cfg.Faults.Active() {
			n.inj.Attach(sn2)
		}
	}
	if w.dfa != nil {
		st := *w.dfa
		st.key = append([]byte(nil), w.dfa.key...)
		st.faulty = append([]dfaFaultCT(nil), w.dfa.faulty...)
		st.log = append([]string(nil), w.dfa.log...)
		eng, err := w.dfa.eng.Adopt(s2, st.key, sn2.IRAM())
		if err != nil {
			panic(fmt.Sprintf("check: dfa victim engine fork failed: %v", err))
		}
		eng.Cipher.SetRoundFault(n.inj)
		st.eng = eng
		n.dfa = &st
	}
	return n
}

// Release recycles the world's fork-private allocations into the clone
// pool and leaves the world unusable. Call it only as the exclusive owner
// of a world that will never be touched again — a finished shrink
// candidate, a dead explorer leaf. Forks taken earlier stay valid: shared
// state is copy-on-write and never recycled.
func (w *World) Release() { w.S.Release() }

// FreezeBase turns the world into a checkpoint (see soc.SoC.FreezeBase):
// forks of it, and Deflates against it, never write to it, so any number of
// goroutines may fork it at once without a lock. No op may be applied to
// it afterwards.
func (w *World) FreezeBase() { w.S.FreezeBase() }

// Deflate re-encodes the world's platform state as a delta against a
// FreezeBase'd base world (soc.SoC.Deflate): only diverged memory pages and
// cache lines are retained. The world must be parked — exclusively owned,
// never applied to again; the next Fork reconstructs a byte-identical dense
// copy.
func (w *World) Deflate(base *World) int64 { return w.S.Deflate(base.S) }

// Dead reports whether a terminal op (or fault) killed the device.
func (w *World) Dead() bool { return w.dead }

// Step returns how many ops this world has executed.
func (w *World) Step() int { return w.step }

// BackgroundOn reports whether a locked-background session is live — one of
// the state predicates the explorer's commutation guards read.
func (w *World) BackgroundOn() bool { return w.bgOn }

// NearMiss inspects a dead world whose post-mortem found no violation and
// reports whether the decayed image came close to one: the marker survives
// under a relaxed decay budget, or the image still holds most of a key
// schedule. Near-miss prefixes are what the explorer banks into its corpus —
// schedules adjacent to a violation are the ones worth re-exploring first.
func (w *World) NearMiss() bool {
	if !w.dead || !w.cutLocked {
		return false
	}
	return w.scanner().NearMiss()
}

// Perturbed reports whether a data-mutating fault fired; end-of-schedule
// integrity verification is meaningless after one.
func (w *World) Perturbed() bool { return w.inj != nil && w.inj.Perturbed() }

// Injector exposes the attached fault injector (nil without one).
func (w *World) Injector() *faults.Injector { return w.inj }

// Apply executes one op and scans for violations. Fault hooks may unwind
// the op mid-way with a faults.Abort; Apply recovers it here — the one
// place in the tree — and converts it into a power loss at that instant.
func (w *World) Apply(op Op) (v *Violation) {
	if w.dead {
		return nil
	}
	w.Cfg.OpsCounter.Inc()
	w.step++
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(faults.Abort)
			if !ok {
				panic(r)
			}
			v = w.at(w.PowerLoss(ab.Seconds, ab.Reason), op)
		}
	}()
	switch op.Code {
	case OpLock:
		w.Lock()
	case OpUnlock:
		_ = w.Unlock()
	case OpBadPIN:
		_ = w.BadPIN()
	case OpFgTouch:
		if w.K.State() == kernel.Unlocked {
			_ = w.Touch(false, uint64(op.Arg), make([]byte, 32))
		}
	case OpBgBegin:
		if w.K.State() != kernel.Unlocked && !w.bgOn {
			_ = w.BeginBackground(false)
		}
	case OpBgTouch:
		if w.bgOn {
			_ = w.Touch(true, uint64(op.Arg), make([]byte, 32))
		}
	case OpFreePage:
		w.freePage(int(op.Arg) % fgPages)
	case OpPressure:
		junk := make([]byte, mem.PageSize)
		for i := 0; i < 8; i++ {
			slot := (uint64(op.Arg) + uint64(i)*17) % 64
			w.S.CPU.ReadPhys(soc.DRAMBase+mem.PhysAddr(0x2000000+slot*0x40000), junk)
		}
	case OpFlushMasked:
		w.S.L2.CleanInvalidateWays(w.K.FlushMask())
	case OpSuspend:
		w.K.Suspend()
	case OpWake:
		w.K.Wake(kernel.WakeSource(op.Arg % 3))
	case OpIdle:
		secs := [...]float64{60, 300, 600, 1000}[op.Arg%4]
		w.K.Idle(secs)
	case OpDrainZero:
		w.K.DrainZeroQueue()
	case OpDMAScrape:
		if v := w.dmaScan(op); v != nil {
			return v
		}
	case OpBitFlip:
		if w.inj != nil {
			if op.Arg%4 == 0 {
				w.inj.FlipBits(w.S.IRAM.Store())
			} else {
				w.inj.FlipBits(w.S.DRAM.Store())
			}
		}
	case OpPowerCut:
		return w.at(w.PowerLoss(blipSeconds, "power cut"), op)
	case OpHeldReset:
		return w.at(w.heldReset(), op)
	case OpGlitchReset:
		return w.at(w.glitchReset(), op)
	case OpPrimeProbe:
		if w.atk != nil && w.atk.pp != nil {
			res := w.atk.pp.Run(w.victimWalk)
			w.atk.log = append(w.atk.log, res.Trace...)
			if res.Recovered == w.atk.trueSet {
				return &Violation{Clause: "cache-timing",
					Detail: fmt.Sprintf("prime+probe recovered the victim's PIN-digit access pattern %#06x", res.Recovered),
					Step:   w.step, Op: op}
			}
		}
	case OpEvictReload:
		if w.atk != nil && w.atk.er != nil {
			res := w.atk.er.Run(w.victimWalk)
			w.atk.log = append(w.atk.log, res.Trace...)
			if res.Recovered == w.atk.trueSet {
				return &Violation{Clause: "cache-timing",
					Detail: fmt.Sprintf("evict+reload recovered the victim's PIN-digit access pattern %#06x", res.Recovered),
					Step:   w.step, Op: op}
			}
		}
	case OpDFAFault:
		if w.dfa != nil {
			w.dfaFault(op)
		}
	case OpDFACollect:
		if w.dfa != nil {
			if v := w.dfaCollect(op); v != nil {
				return v
			}
		}
	case OpOccupancy:
		if w.atk != nil && w.atk.occ != nil {
			locked, tr := w.atk.occ.Measure()
			w.atk.log = append(w.atk.log, tr)
			if locked > w.atk.baseLocked {
				return &Violation{Clause: "occupancy",
					Detail: fmt.Sprintf("locked-way occupancy %d exceeds the boot baseline %d: way-locking leaks live session state", locked, w.atk.baseLocked),
					Step:   w.step, Op: op}
			}
		}
	}
	return w.scan(op)
}

// The ops below are the ones the checker and the fleet both serve. Each
// returns the device's error; Apply ignores it, the fleet types it.

// Lock locks the screen: encrypt-on-lock.
func (w *World) Lock() { w.K.Lock() }

// Unlock presents the right PIN. A locked-background session ends inside
// Unlock, whatever it returns.
func (w *World) Unlock() error {
	w.bgOn = false
	return w.K.Unlock(PIN)
}

// BadPIN presents a wrong PIN; enough of them deep-lock the device.
func (w *World) BadPIN() error { return w.K.Unlock(badPIN) }

// BeginBackground starts a locked-background session for the background
// process: a 128 KB locked-way session, or with pinned a 4-page pool pinned
// in iRAM (the §10 pin-on-SoC variant). The caller checks the lock state.
func (w *World) BeginBackground(pinned bool) error {
	var err error
	if pinned {
		err = w.Sn.BeginBackgroundPinned(w.bg, 4)
	} else {
		err = w.Sn.BeginBackground(w.bg, 128)
	}
	if err == nil {
		w.bgOn = true
	}
	return err
}

// Touch reads len(buf) bytes from the start of one foreground (or, with bg,
// background) page, picked by arg modulo the mapping, and reports a page
// that is unreadable or whose bytes differ from the planted marker over
// their common length. The caller checks that the process may run.
func (w *World) Touch(bg bool, arg uint64, buf []byte) error {
	p, base, pages := w.fg, w.fgBase, uint64(fgPages)
	if bg {
		p, base, pages = w.bg, w.bgBase, bgPages
	}
	w.K.Switch(p)
	pg := int(arg % pages)
	if err := w.S.CPU.Load(base+mmu.VirtAddr(pg*mem.PageSize), buf); err != nil {
		return fmt.Errorf("%s page %d unreadable: %v", p.Name, pg, err)
	}
	n := min(len(buf), len(w.marker))
	if !bytes.Equal(buf[:n], w.marker[:n]) {
		return fmt.Errorf("%s page %d corrupted", p.Name, pg)
	}
	return nil
}

// MarkerLen is the length of the planted marker: a Touch buffer of this
// size reads exactly the marker back.
func (w *World) MarkerLen() int { return len(w.marker) }

// freePage frees one foreground page while unlocked and re-arms it with a
// fresh frame so later touches stay valid. The freed frame rides the zero
// queue — the surface the zero-on-free defence covers.
func (w *World) freePage(pg int) {
	if w.K.State() != kernel.Unlocked {
		return
	}
	w.K.Switch(w.fg)
	v := w.fgBase + mmu.VirtAddr(pg*mem.PageSize)
	if pte := w.fg.AS.Lookup(v); pte != nil {
		w.K.UnmapAndFree(w.fg, v)
		frame, err := w.K.Pages().Alloc()
		if err == nil {
			w.fg.AS.Map(v, mmu.PTE{Phys: frame, Present: true, Writable: true, Young: true})
			line := append(append([]byte{}, w.marker...), byte(pg))
			_ = w.S.CPU.Store(v, line)
		}
	}
}

// scanner returns the scan-clause view of this world's invariant.
func (w *World) scanner() *scanner {
	return &scanner{S: w.S, K: w.K, Marker: w.marker, VolKey0: w.volKey0}
}

// at stamps a violation with its schedule context; nil stays nil.
func (w *World) at(v *Violation, op Op) *Violation {
	if v != nil {
		v.Step, v.Op = w.step, op
	}
	return v
}

// scan enforces the invariant at a step boundary while the device is
// locked.
func (w *World) scan(op Op) *Violation {
	// (bus) latched by the probe during any locked period.
	if w.probe != nil && w.probe.tripped != "" {
		v := &Violation{Clause: "bus", Detail: w.probe.tripped, Step: w.step, Op: op}
		w.probe.tripped = ""
		return v
	}
	if w.K.State() == kernel.Unlocked {
		return nil
	}
	// (dram) and (writeback) via the scanner clauses.
	return w.at(w.scanner().ScanLive(), op)
}

// dmaScan mounts the paper's DMA-peripheral attack; on platforms without an
// open DMA port it degrades to the regular scan.
func (w *World) dmaScan(op Op) *Violation {
	if w.K.State() == kernel.Unlocked {
		// DMA reads plaintext while unlocked by design; out of scope.
		return w.scan(op)
	}
	a, err := attack.MountDMAScrape(w.S)
	if err != nil {
		return w.scan(op)
	}
	if a.ContainsSecret(w.marker) {
		return &Violation{Clause: "dma", Detail: "plaintext marker readable by DMA peripheral", Step: w.step, Op: op}
	}
	return w.scan(op)
}

// PowerLoss cuts power for the given seconds and post-mortems the decayed
// image, naming the cause why in any violation. The world is dead
// afterwards.
func (w *World) PowerLoss(seconds float64, why string) *Violation {
	w.cutLocked = w.K.State() != kernel.Unlocked
	w.S.PowerCut(seconds, remanence.RoomTempC)
	w.dead = true
	return w.postMortem(why)
}

// heldReset is the paper's 2-second held reset into an attacker image. A
// locked bootloader rejects the unsigned dump image, but the power loss
// happens physically regardless — fall back to a raw cut.
func (w *World) heldReset() *Violation {
	w.cutLocked = w.K.State() != kernel.Unlocked
	if err := w.S.HeldReset(heldResetSeconds, firmware.Image{Name: "memdump"}); err != nil {
		w.S.PowerCut(heldResetSeconds, remanence.RoomTempC)
	}
	w.dead = true
	return w.postMortem("held reset")
}

// glitchReset is the adversarial reset-glitch: cold boot with the ROM's
// iRAM zeroing and image verification skipped.
func (w *World) glitchReset() *Violation {
	w.cutLocked = w.K.State() != kernel.Unlocked
	w.S.GlitchedReset(glitchSeconds, firmware.Image{Name: "memdump"})
	w.dead = true
	return w.postMortem("glitched reset")
}

// postMortem scans the remanence image after power loss. Only a device that
// was locked at the cut is in scope: the pre-lock plaintext window is the
// exposure the paper's threat model accepts. The reference key is the one
// generated at boot: deep-lock zeroizes the live copy, but ciphertext sealed
// under the original must stay safe.
func (w *World) postMortem(why string) *Violation {
	if !w.cutLocked {
		return nil
	}
	return w.scanner().PostMortem(why)
}

// Abandon marks the world dead without a power cut: its harness caught a
// bug mid-op and can no longer trust its state. Nothing is post-mortemed.
func (w *World) Abandon() { w.dead, w.cutLocked = true, false }

// Sweep is the end-of-run confidentiality check over a final world: detach
// the fault injector so nothing can interrupt it, lock, scan the live locked
// image, then cut power for a blip and post-mortem the decayed image, naming
// the cause why. live and cut are the two scans' violations. The world is
// dead afterwards.
func (w *World) Sweep(why string) (live, cut *Violation) {
	if w.inj != nil {
		faults.Detach(w.Sn)
		w.inj = nil
	}
	if w.K.State() == kernel.Unlocked {
		w.K.Lock()
	}
	live = w.scanner().ScanLive()
	return live, w.PowerLoss(blipSeconds, why)
}

// IntegrityCheck verifies end-to-end data integrity after a schedule on a
// live, unperturbed world: unlock and expect every marker byte back. A
// deep-locked device cannot unlock (by design) and is skipped.
func (w *World) IntegrityCheck() error {
	if w.dead || w.Perturbed() {
		return nil
	}
	if err := w.K.Unlock(PIN); err != nil {
		if w.K.State() == kernel.DeepLocked {
			return nil
		}
		return fmt.Errorf("unlock for integrity check failed: %v", err)
	}
	w.bgOn = false
	check := func(p *kernel.Process, base mmu.VirtAddr, pages int) error {
		w.K.Switch(p)
		got := make([]byte, len(w.marker))
		for i := 0; i < pages; i++ {
			if err := w.S.CPU.Load(base+mmu.VirtAddr(i*mem.PageSize), got); err != nil {
				return fmt.Errorf("%s page %d unreadable after run: %v", p.Name, i, err)
			}
			if !bytes.Equal(got, w.marker) {
				return fmt.Errorf("%s page %d corrupted after run", p.Name, i)
			}
		}
		return nil
	}
	if err := check(w.fg, w.fgBase, fgPages); err != nil {
		return err
	}
	return check(w.bg, w.bgBase, bgPages)
}
