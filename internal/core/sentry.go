// Package core implements Sentry, the paper's primary contribution: a
// system that guarantees the sensitive state of selected applications and
// OS subsystems is never in cleartext in DRAM while the device is
// screen-locked.
//
// The mechanism is the paper's §2/§5/§7 design:
//
//   - Encrypt-on-lock: when the device transitions to screen-locked, Sentry
//     waits for the freed-page zeroing thread, then walks the page tables of
//     every sensitive process and encrypts its pages in place with the
//     volatile root key, arming a young-bit trap on each page. Processes
//     without background privileges are parked unschedulable.
//   - Decrypt-on-unlock: decryption is lazy. DMA regions (which fault
//     never) are decrypted eagerly at unlock; everything else decrypts on
//     first touch from the page-fault handler, saving time and energy when
//     the user glances at the phone and re-locks it.
//   - Encrypted DRAM for background apps (background.go): while locked,
//     background processes execute with their pages paged through a locked
//     L2 way — decrypt on page-in to the SoC, encrypt on page-out to DRAM.
//   - Keys (keys.go): a per-boot volatile root key held in iRAM (protected
//     from DMA by TrustZone where available) and a persistent key derived
//     from the user's boot password and the secure hardware fuse.
//
// All cryptography goes through AES On SoC (package onsoc), so the
// encryption machinery itself leaks nothing to DRAM.
package core

import (
	"fmt"

	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/obs"
	"sentry/internal/onsoc"
	"sentry/internal/soc"
)

// Config selects Sentry's mechanisms for a platform.
type Config struct {
	// EngineInLockedWay places the AES On SoC arena in a locked L2 way
	// instead of iRAM (Tegra only; iRAM is the default and works on both
	// prototypes).
	EngineInLockedWay bool

	// ReservedWays locks a constant way budget at boot (see
	// onsoc.WayLocker.ReserveWays): session lock/unlock cycles served from
	// the budget never change the externally observable lock state, closing
	// the way-locking occupancy channel. Ignored on platforms that cannot
	// lock ways.
	ReservedWays int

	// Defence ablations. Each switches off one layer of the paper's
	// defence-in-depth so the model checker's positive controls can prove
	// it detects the resulting leak (internal/check). Production
	// configurations leave both false.

	// NoLockFlush skips the masked clean+invalidate at the end of
	// encrypt-on-lock, leaving ciphertext dirty in the cache and stale
	// plaintext in any DRAM frame it was evicted to.
	NoLockFlush bool
	// NoDrainOnLock skips waiting for the freed-page zeroing thread at
	// lock time, leaving freed frames (and their stale cache lines) full
	// of secrets.
	NoDrainOnLock bool
}

// FaultProbe is core's slice of a fault injector: a callback after each
// page sealed during encrypt-on-lock. Implementations may panic (with a
// faults.Abort) to model power loss mid-encryption — the device never
// reaches the locked state, so the interrupted plaintext window falls in
// the pre-lock exposure the threat model accepts.
type FaultProbe interface {
	OnLockPage(pagesSealed int)
}

// Stats counts Sentry activity. Since the observability layer landed it is
// a snapshot view over the metrics registry (see Sentry.Stats); the struct
// shape is kept so existing callers read it unchanged.
type Stats struct {
	LockEncryptedBytes   uint64 // encrypt-on-lock volume (cumulative)
	DemandDecryptedBytes uint64 // lazy decrypt volume
	EagerDecryptedBytes  uint64 // DMA-region decrypt volume at unlock
	DemandFaults         uint64 // page faults that triggered decryption
	BgPageIns            uint64
	BgPageOuts           uint64
	SkippedSharedPages   uint64 // pages shared with non-sensitive processes
}

// Registry names of the Stats counters, and the seal/unseal latency
// histograms cryptPage feeds.
const (
	MetricLockEncryptedBytes   = "sentry.lock_encrypted_bytes"
	MetricDemandDecryptedBytes = "sentry.demand_decrypted_bytes"
	MetricEagerDecryptedBytes  = "sentry.eager_decrypted_bytes"
	MetricDemandFaults         = "sentry.demand_faults"
	MetricBgPageIns            = "sentry.bg_page_ins"
	MetricBgPageOuts           = "sentry.bg_page_outs"
	MetricSkippedSharedPages   = "sentry.skipped_shared_pages"
	MetricSealCycles           = "sentry.seal_cycles"   // per-page encrypt latency
	MetricUnsealCycles         = "sentry.unseal_cycles" // per-page decrypt latency
)

// Seal labels distinguish why a page was sealed or unsealed in the trace;
// they match 1:1 with the Stats counters so reports derived from either
// agree exactly.
const (
	SealLock   = "lock"   // encrypt-on-lock
	SealDemand = "demand" // decrypt-on-first-touch
	SealEager  = "eager"  // eager decrypt at unlock (DMA regions, kernel)
	SealBg     = "bg"     // background-session page-in/out
)

// Sentry is one instance of the system, bound to a kernel.
type Sentry struct {
	K   *kernel.Kernel
	S   *soc.SoC
	cfg Config

	iram   *onsoc.IRAMAlloc
	locker *onsoc.WayLocker // nil when the platform cannot lock ways

	keys   *KeyStore
	engine *onsoc.AES

	epoch uint64 // bumps on every lock; part of each page's IV
	// frameEpoch records the epoch each still-encrypted frame was sealed
	// under: a page that goes untouched across several lock/unlock cycles
	// keeps its original ciphertext and must decrypt with the IV of the
	// epoch that produced it.
	frameEpoch map[mem.PhysAddr]uint64

	bg *bgState // non-nil while a background session is active

	// sealedKernelFrames are OS-subsystem frames encrypted at the last
	// lock; they decrypt eagerly at unlock (kernel code cannot fault).
	sealedKernelFrames []mem.PhysAddr

	// faults is nil unless a fault injector is attached.
	faults FaultProbe

	// page stages one page for cryptPage and copyPage; see stagingPage.
	page *[mem.PageSize]byte

	// Activity counters live in the platform's metrics registry; Stats()
	// rebuilds the legacy struct from them.
	reg            *obs.Registry
	ctrLockEnc     *obs.Counter
	ctrDemandDec   *obs.Counter
	ctrEagerDec    *obs.Counter
	ctrDemandFault *obs.Counter
	ctrBgIns       *obs.Counter
	ctrBgOuts      *obs.Counter
	ctrSkipped     *obs.Counter
	histSeal       *obs.Histogram
	histUnseal     *obs.Histogram
}

// New installs Sentry into k. On platforms with secure-world access the
// volatile key's iRAM home is shielded from DMA via TrustZone; on lockable
// platforms a WayLocker is prepared over the kernel's alias region.
func New(k *kernel.Kernel, cfg Config) (*Sentry, error) {
	s := k.SoC
	base, size := s.UsableIRAM()
	sn := &Sentry{
		K: k, S: s, cfg: cfg,
		iram:       onsoc.NewIRAMAlloc(base, size),
		frameEpoch: make(map[mem.PhysAddr]uint64),
	}

	// Sentry's activity counters live in the platform registry. If the
	// caller has not instrumented the SoC, install a private registry now
	// so Stats() always works and later consumers (per-process MMU fault
	// counters) share it. Deliberately do NOT wire the per-transaction
	// component instruments here: bus and cache counters cost an atomic
	// update on every simulated transfer, and without a caller-provided
	// tracer or registry nothing ever reads them. An explicitly
	// instrumented SoC (s.Metrics != nil) is left untouched.
	if s.Metrics == nil {
		if s.Trace != nil {
			s.Instrument(s.Trace, obs.NewRegistry())
		} else {
			s.Metrics = obs.NewRegistry()
		}
	}
	sn.reg = s.Metrics
	sn.ctrLockEnc = sn.reg.Counter(MetricLockEncryptedBytes)
	sn.ctrDemandDec = sn.reg.Counter(MetricDemandDecryptedBytes)
	sn.ctrEagerDec = sn.reg.Counter(MetricEagerDecryptedBytes)
	sn.ctrDemandFault = sn.reg.Counter(MetricDemandFaults)
	sn.ctrBgIns = sn.reg.Counter(MetricBgPageIns)
	sn.ctrBgOuts = sn.reg.Counter(MetricBgPageOuts)
	sn.ctrSkipped = sn.reg.Counter(MetricSkippedSharedPages)
	// Page seal/unseal run tens of thousands of cycles on the bulk model
	// and millions under full fidelity; geometric buckets span both.
	sealBounds := obs.ExpBounds(4096, 2, 16)
	sn.histSeal = sn.reg.Histogram(MetricSealCycles, sealBounds)
	sn.histUnseal = sn.reg.Histogram(MetricUnsealCycles, sealBounds)

	if s.Prof.CacheLockable {
		locker, err := onsoc.NewWayLocker(s, k.AliasRegion.Base)
		if err != nil {
			return nil, err
		}
		sn.locker = locker
		if cfg.ReservedWays > 0 {
			if err := locker.ReserveWays(cfg.ReservedWays); err != nil {
				return nil, err
			}
		}
	}

	keys, err := NewKeyStore(s, sn.iram)
	if err != nil {
		return nil, err
	}
	sn.keys = keys

	if cfg.EngineInLockedWay {
		if sn.locker == nil {
			return nil, fmt.Errorf("core: locked-way engine requested but platform %s cannot lock ways", s.Prof.Name)
		}
		sn.engine, err = onsoc.NewInLockedWay(s, sn.locker, keys.VolatileKey())
	} else {
		sn.engine, err = onsoc.NewInIRAM(s, sn.iram, keys.VolatileKey())
	}
	if err != nil {
		return nil, err
	}

	k.FlushMaskFn = sn.flushMask
	k.OnLock = append(k.OnLock, sn.encryptOnLock)
	k.OnUnlock = append(k.OnUnlock, sn.onUnlock)
	// Deep lock is terminal until a power cycle, so the volatile key serves
	// no further purpose — destroy it rather than leave it in iRAM.
	k.OnDeepLock = append(k.OnDeepLock, sn.keys.Zeroize)
	prevHook := k.FaultHook
	k.FaultHook = func(p *kernel.Process, f *mmu.Fault) bool {
		if sn.handleFault(p, f) {
			return true
		}
		return prevHook != nil && prevHook(p, f)
	}
	return sn, nil
}

// Clone rebuilds this Sentry over the forked kernel k2 (produced by
// kernel.Clone on a soc.Fork of this Sentry's platform). pm is the old→new
// process map kernel.Clone returned; it re-binds the background session's
// process reference. No simulated time is charged: page contents, the
// volatile key, and the AES arena all travel with the forked memory, and
// the engine adopts its arena rather than re-initialising it.
//
// The clone re-installs Sentry's kernel hooks on k2 exactly as New does on
// a fresh kernel. A fault probe is NOT carried — the harness that owns the
// injector re-attaches it to the clone.
func (sn *Sentry) Clone(k2 *kernel.Kernel, pm map[*kernel.Process]*kernel.Process) (*Sentry, error) {
	s2 := k2.SoC
	n := &Sentry{
		K: k2, S: s2, cfg: sn.cfg,
		iram:       sn.iram.Clone(),
		epoch:      sn.epoch,
		frameEpoch: make(map[mem.PhysAddr]uint64, len(sn.frameEpoch)),
	}
	for f, e := range sn.frameEpoch {
		n.frameEpoch[f] = e
	}
	if len(sn.sealedKernelFrames) > 0 {
		n.sealedKernelFrames = append([]mem.PhysAddr(nil), sn.sealedKernelFrames...)
	}
	if sn.locker != nil {
		n.locker = sn.locker.Clone(s2)
	}
	n.keys = sn.keys.clone(s2)

	// Re-resolve instruments by name from the cloned registry — the same
	// wiring-time resolution New performs. soc.Fork guarantees s2.Metrics is
	// a clone of the parent's registry (New ensured the parent had one).
	n.reg = s2.Metrics
	n.ctrLockEnc = n.reg.Counter(MetricLockEncryptedBytes)
	n.ctrDemandDec = n.reg.Counter(MetricDemandDecryptedBytes)
	n.ctrEagerDec = n.reg.Counter(MetricEagerDecryptedBytes)
	n.ctrDemandFault = n.reg.Counter(MetricDemandFaults)
	n.ctrBgIns = n.reg.Counter(MetricBgPageIns)
	n.ctrBgOuts = n.reg.Counter(MetricBgPageOuts)
	n.ctrSkipped = n.reg.Counter(MetricSkippedSharedPages)
	sealBounds := obs.ExpBounds(4096, 2, 16)
	n.histSeal = n.reg.Histogram(MetricSealCycles, sealBounds)
	n.histUnseal = n.reg.Histogram(MetricUnsealCycles, sealBounds)

	var engineAlloc *onsoc.IRAMAlloc
	if !sn.cfg.EngineInLockedWay {
		engineAlloc = n.iram
	}
	eng, err := sn.engine.Adopt(s2, n.keys.peekKey(), engineAlloc)
	if err != nil {
		return nil, err
	}
	n.engine = eng

	if sn.bg != nil {
		st := &bgState{proc: pm[sn.bg.proc]}
		slotMap := make(map[*bgSlot]*bgSlot, len(sn.bg.slots))
		for _, s := range sn.bg.slots {
			c := *s
			st.slots = append(st.slots, &c)
			slotMap[s] = &c
		}
		for _, s := range sn.bg.fifo {
			st.fifo = append(st.fifo, slotMap[s])
		}
		st.ways = append([]int(nil), sn.bg.ways...)
		st.pinned = append([]mem.PhysAddr(nil), sn.bg.pinned...)
		n.bg = st
	}

	k2.FlushMaskFn = n.flushMask
	k2.OnLock = append(k2.OnLock, n.encryptOnLock)
	k2.OnUnlock = append(k2.OnUnlock, n.onUnlock)
	k2.OnDeepLock = append(k2.OnDeepLock, n.keys.Zeroize)
	prevHook := k2.FaultHook
	k2.FaultHook = func(p *kernel.Process, f *mmu.Fault) bool {
		if n.handleFault(p, f) {
			return true
		}
		return prevHook != nil && prevHook(p, f)
	}
	return n, nil
}

// Stats returns a snapshot of activity counters, read from the metrics
// registry.
func (sn *Sentry) Stats() Stats {
	return Stats{
		LockEncryptedBytes:   sn.ctrLockEnc.Value(),
		DemandDecryptedBytes: sn.ctrDemandDec.Value(),
		EagerDecryptedBytes:  sn.ctrEagerDec.Value(),
		DemandFaults:         sn.ctrDemandFault.Value(),
		BgPageIns:            sn.ctrBgIns.Value(),
		BgPageOuts:           sn.ctrBgOuts.Value(),
		SkippedSharedPages:   sn.ctrSkipped.Value(),
	}
}

// Metrics returns the registry Sentry records into.
func (sn *Sentry) Metrics() *obs.Registry { return sn.reg }

// SetFaults attaches (or, with nil, detaches) a fault probe.
func (sn *Sentry) SetFaults(p FaultProbe) { sn.faults = p }

// Engine exposes the AES On SoC instance (benchmarks compare it against
// generic providers).
func (sn *Sentry) Engine() *onsoc.AES { return sn.engine }

// Locker exposes the way locker, nil on platforms without cache locking.
func (sn *Sentry) Locker() *onsoc.WayLocker { return sn.locker }

// IRAM exposes the iRAM allocator.
func (sn *Sentry) IRAM() *onsoc.IRAMAlloc { return sn.iram }

// Keys exposes the key store.
func (sn *Sentry) Keys() *KeyStore { return sn.keys }

// Rekey replaces the volatile root key and re-expands the on-SoC engine's
// schedule over the new key, in place. Only legal before anything has been
// sealed: a page encrypted under the old key would be garbage after. Hosts
// that stamp per-device keys onto a forked base image (internal/fleet) call
// this right after the fork, before any process locks.
func (sn *Sentry) Rekey(key []byte) error {
	if len(sn.frameEpoch) != 0 || len(sn.sealedKernelFrames) != 0 {
		return fmt.Errorf("core: rekey with %d sealed frames outstanding", len(sn.frameEpoch)+len(sn.sealedKernelFrames))
	}
	if err := sn.keys.Rekey(key); err != nil {
		return err
	}
	return sn.engine.Rekey(key)
}

// pageIV derives the CBC IV for a page: the volatile-key encryption of
// (frame number, lock epoch), so re-encrypting at every lock never reuses
// an IV for changed content.
func (sn *Sentry) pageIV(frame mem.PhysAddr, epoch uint64) []byte {
	var block [16]byte
	f := uint64(frame)
	for i := 0; i < 8; i++ {
		block[i] = byte(f >> (8 * i))
		block[8+i] = byte(epoch >> (8 * i))
	}
	iv := make([]byte, 16)
	sn.engine.Cipher.EncryptBlock(iv, block[:])
	return iv
}

// epochFor returns the IV epoch for an operation on frame: a decrypt must
// use the epoch the ciphertext was sealed under; an encrypt seals under
// the current epoch and records it.
func (sn *Sentry) epochFor(frame mem.PhysAddr, decrypt bool) uint64 {
	if decrypt {
		if e, ok := sn.frameEpoch[frame]; ok {
			delete(sn.frameEpoch, frame)
			return e
		}
		return sn.epoch
	}
	sn.frameEpoch[frame] = sn.epoch
	return sn.epoch
}

// cryptPage encrypts or decrypts the 4 KB at addr in place, with the IV
// bound to ivFrame — the page's home frame, which differs from addr only
// for background-session slots (stable across page-in/out cycles within a
// lock epoch). label says why (SealLock, SealDemand, SealEager, SealBg) and
// is carried on the trace event so trace-derived reports can split volumes
// the same way Stats does.
func (sn *Sentry) cryptPage(addr, ivFrame mem.PhysAddr, decrypt bool, label string) {
	page := sn.stagingPage()
	startCycle := sn.S.Clock.Cycles()
	sn.S.CPU.ReadPhys(addr, page[:])
	iv := sn.pageIV(ivFrame, sn.epochFor(ivFrame, decrypt))
	var err error
	if decrypt {
		err = sn.engine.DecryptCBCBulk(page[:], page[:], iv)
	} else {
		err = sn.engine.EncryptCBCBulk(page[:], page[:], iv)
	}
	if err != nil {
		panic(fmt.Sprintf("core: page crypt failed: %v", err)) // sizes are fixed; cannot happen
	}
	sn.S.CPU.WritePhys(addr, page[:])
	sn.observeCrypt(addr, decrypt, label, startCycle)
}

// stagingPage returns the host-side buffer a page passes through on its way
// between two simulated locations, allocated on first use. Clone leaves it
// nil, so a fork never shares its parent's buffer.
func (sn *Sentry) stagingPage() *[mem.PageSize]byte {
	if sn.page == nil {
		sn.page = new([mem.PageSize]byte)
	}
	return sn.page
}

// ReleaseStaging drops the page staging buffer. A parked world calls it: it
// never runs again (its forks allocate their own), so it need not hold a
// page while it rests.
func (sn *Sentry) ReleaseStaging() { sn.page = nil }

// observeCrypt records one page seal/unseal: a latency observation and,
// when tracing is on, a PageSeal/PageUnseal event whose Arg is the cycle
// span the operation took.
func (sn *Sentry) observeCrypt(frame mem.PhysAddr, decrypt bool, label string, startCycle uint64) {
	span := sn.S.Clock.Cycles() - startCycle
	kind := obs.KindPageSeal
	if decrypt {
		kind = obs.KindPageUnseal
		sn.histUnseal.Observe(span)
	} else {
		sn.histSeal.Observe(span)
	}
	if tr := sn.S.Trace; tr != nil {
		tr.Emit(obs.Event{
			Cycle: sn.S.Clock.Cycles(),
			Kind:  kind,
			Addr:  uint64(frame),
			Size:  mem.PageSize,
			Arg:   span,
			Label: label,
		})
	}
}

// pageSafeToSkip implements the shared-page policy: a page shared with any
// non-sensitive process is assumed non-secret and left alone.
func (sn *Sentry) pageSafeToSkip(p *kernel.Process, v mmu.VirtAddr) bool {
	pte := p.AS.Lookup(v)
	if pte == nil || !pte.Shared {
		return false
	}
	for _, pid := range sn.K.SharedPeers(p, v) {
		peer := sn.K.Process(pid)
		if peer != nil && !peer.Sensitive {
			return true
		}
	}
	return false
}

// encryptOnLock is the OnLock hook: zero freed pages, then encrypt every
// sensitive process's resident pages and DMA regions, arm traps, park
// non-background processes.
func (sn *Sentry) encryptOnLock() {
	// Freed pages of sensitive apps may hold secrets; the paper eliminates
	// the risk by waiting for the zeroing thread before locking.
	if !sn.cfg.NoDrainOnLock {
		sn.K.DrainZeroQueue()
	}
	sn.epoch++

	sealed := 0
	done := map[mem.PhysAddr]bool{} // shared frames encrypt once
	for _, p := range sn.K.Processes() {
		if !p.Sensitive {
			continue
		}
		for _, v := range p.AS.Pages() {
			pte := p.AS.Lookup(v)
			if pte.Encrypted {
				continue
			}
			if sn.pageSafeToSkip(p, v) {
				sn.ctrSkipped.Inc()
				continue
			}
			frame := mem.PageBase(pte.Phys)
			if !done[frame] {
				sn.cryptPage(frame, frame, false, SealLock)
				sn.ctrLockEnc.Add(mem.PageSize)
				done[frame] = true
				sealed++
				if sn.faults != nil {
					sn.faults.OnLockPage(sealed)
				}
			}
			sn.markEncrypted(p, v)
		}
		if !p.Background {
			p.Schedulable = false
		}
	}
	// OS subsystems registered as sensitive (keyrings, crypto contexts)
	// are sealed the same way; they have no PTEs, so unlock must decrypt
	// them eagerly.
	for _, nr := range sn.K.SensitiveKernelRanges {
		for off := uint64(0); off < nr.Size; off += mem.PageSize {
			frame := nr.Base + mem.PhysAddr(off)
			sn.cryptPage(frame, frame, false, SealLock)
			sn.ctrLockEnc.Add(mem.PageSize)
			sn.sealedKernelFrames = append(sn.sealedKernelFrames, frame)
			sealed++
			if sn.faults != nil {
				sn.faults.OnLockPage(sealed)
			}
		}
	}
	// Push all ciphertext out and drop stale lines so nothing decrypted
	// lingers in the L2 across the locked period — masked, of course.
	if !sn.cfg.NoLockFlush {
		sn.S.L2.CleanInvalidateWays(sn.flushMask())
	}
}

// markEncrypted updates the PTE in p (and any process sharing the page) to
// encrypted-and-trapped.
func (sn *Sentry) markEncrypted(p *kernel.Process, v mmu.VirtAddr) {
	set := func(proc *kernel.Process) {
		if pte := proc.AS.Lookup(v); pte != nil {
			pte.Encrypted = true
			pte.Young = false
		}
	}
	set(p)
	for _, pid := range sn.K.SharedPeers(p, v) {
		if peer := sn.K.Process(pid); peer != nil {
			set(peer)
		}
	}
}

func (sn *Sentry) flushMask() uint32 {
	if sn.locker != nil {
		return sn.locker.FlushMask()
	}
	return sn.S.L2.AllWaysMask()
}

// onUnlock is the OnUnlock hook: end any background session, eagerly
// decrypt DMA regions, and unpark processes. Ordinary pages stay encrypted
// until first touch.
func (sn *Sentry) onUnlock() {
	sn.endBackground()
	for _, frame := range sn.sealedKernelFrames {
		sn.cryptPage(frame, frame, true, SealEager)
		sn.ctrEagerDec.Add(mem.PageSize)
	}
	sn.sealedKernelFrames = nil
	for _, p := range sn.K.Processes() {
		if !p.Sensitive {
			continue
		}
		for _, r := range p.DMARegions {
			sn.decryptDMARegion(p, r)
		}
		p.Schedulable = true
	}
}

// decryptDMARegion eagerly decrypts a device-visible range: its consumers
// (GPU, NIC) use physical addresses and never fault.
func (sn *Sentry) decryptDMARegion(p *kernel.Process, r kernel.Range) {
	// Reverse frame→PTE index, built once per region. Walking the page list
	// per frame was O(pages) per page — quadratic across a large region.
	// Where several virtual pages map one frame, the lowest address wins,
	// matching the ascending-order walk this replaces.
	type mapping struct {
		v   mmu.VirtAddr
		pte *mmu.PTE
	}
	rev := make(map[mem.PhysAddr]mapping, p.AS.Len())
	p.AS.Range(func(v mmu.VirtAddr, pte *mmu.PTE) {
		f := mem.PageBase(pte.Phys)
		if old, ok := rev[f]; !ok || v < old.v {
			rev[f] = mapping{v, pte}
		}
	})
	for off := uint64(0); off < r.Size; off += mem.PageSize {
		frame := r.Base + mem.PhysAddr(off)
		m, ok := rev[frame]
		if !ok || !m.pte.Encrypted {
			continue
		}
		sn.cryptPage(frame, frame, true, SealEager)
		sn.ctrEagerDec.Add(mem.PageSize)
		m.pte.Encrypted = false
		m.pte.Young = true
	}
}

// handleFault is Sentry's page-fault interposition: decrypt-on-demand for
// encrypted pages (unlocked foreground path), or locked-way page-in for an
// active background session.
func (sn *Sentry) handleFault(p *kernel.Process, f *mmu.Fault) bool {
	if f.Kind != mmu.FaultAccessFlag {
		return false
	}
	pte := p.AS.Lookup(f.Addr)
	if pte == nil || !pte.Encrypted {
		return false
	}
	if sn.bg != nil && sn.bg.proc == p && sn.K.State() != kernel.Unlocked {
		return sn.bgPageIn(p, f.Addr, pte)
	}
	if sn.K.State() != kernel.Unlocked {
		// A parked process touched an encrypted page while locked — refuse.
		return false
	}
	sn.ctrDemandFault.Inc()
	frame := mem.PageBase(pte.Phys)
	sn.cryptPage(frame, frame, true, SealDemand)
	sn.ctrDemandDec.Add(mem.PageSize)
	pte.Encrypted = false
	pte.Young = true
	// Keep sharers consistent.
	for _, pid := range sn.K.SharedPeers(p, mmu.PageBase(f.Addr)) {
		if peer := sn.K.Process(pid); peer != nil {
			if ppte := peer.AS.Lookup(f.Addr); ppte != nil {
				ppte.Encrypted = false
				ppte.Young = true
			}
		}
	}
	return true
}
