package core

import (
	"fmt"

	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/soc"
)

// Background execution with encrypted DRAM (paper §5, Figure 1): while the
// device is locked, a background process runs with its working set paged
// through a locked L2 way. DRAM only ever holds ciphertext; cleartext pages
// exist solely inside the locked way.
//
// Page-in (on young-bit trap): copy the encrypted page from its DRAM home
// into a free locked-way slot, decrypt it in place on the SoC, repoint the
// PTE at the slot, and set the young bit. Page-out (slot pressure): encrypt
// the slot in place, copy the ciphertext back to the home frame, repoint
// the PTE home, and clear the young bit.

type bgSlot struct {
	addr     mem.PhysAddr // page-sized region inside a locked way
	occupied bool
	v        mmu.VirtAddr // virtual page currently resident
	home     mem.PhysAddr // its DRAM home frame
}

type bgState struct {
	proc  *kernel.Process
	slots []*bgSlot
	fifo  []*bgSlot // occupied slots in arrival order (FIFO eviction)
	ways  []int     // ways locked for this session
	// pinned holds iRAM allocations when the session uses the §10
	// pin-on-SoC abstraction instead of locked cache ways.
	pinned []mem.PhysAddr
}

// BeginBackground starts an encrypted-DRAM session for p using lockedKB of
// pinned L2 (the paper evaluates 256 KB and 512 KB). The process must be a
// sensitive background process, the device must be locked, and the platform
// must support cache locking.
func (sn *Sentry) BeginBackground(p *kernel.Process, lockedKB int) error {
	return sn.beginBackground(p, lockedKB, 0)
}

// BeginBackgroundLimited is BeginBackground with the slot pool capped at
// maxPoolPages. The paper's minimum configuration (§7) is a single page for
// the application plus one for AES On SoC: functional, but thrashing.
func (sn *Sentry) BeginBackgroundLimited(p *kernel.Process, lockedKB, maxPoolPages int) error {
	return sn.beginBackground(p, lockedKB, maxPoolPages)
}

func (sn *Sentry) beginBackground(p *kernel.Process, lockedKB, maxPoolPages int) error {
	switch {
	case sn.locker == nil:
		return fmt.Errorf("core: platform %s cannot run locked background sessions: %w", sn.S.Prof.Name, soc.ErrUnsupported)
	case sn.K.State() == kernel.Unlocked:
		return fmt.Errorf("core: background sessions only run while locked: %w", kernel.ErrLocked)
	case sn.bg != nil:
		return fmt.Errorf("core: a background session is already active")
	case !p.Sensitive || !p.Background:
		return fmt.Errorf("core: process %q is not a sensitive background process", p.Name)
	}
	waySizeKB := sn.S.Prof.Cache.WaySize / 1024
	if lockedKB%waySizeKB != 0 || lockedKB == 0 {
		return fmt.Errorf("core: locked capacity %d KB is not a multiple of the way size %d KB", lockedKB, waySizeKB)
	}
	st := &bgState{proc: p}
	for locked := 0; locked < lockedKB; locked += waySizeKB {
		way, base, err := sn.locker.LockWay()
		if err != nil {
			sn.releaseBgWays(st)
			return err
		}
		st.ways = append(st.ways, way)
		for off := 0; off < sn.S.Prof.Cache.WaySize; off += mem.PageSize {
			if maxPoolPages > 0 && len(st.slots) >= maxPoolPages {
				break
			}
			st.slots = append(st.slots, &bgSlot{addr: base + mem.PhysAddr(off)})
		}
	}
	sn.bg = st
	p.Schedulable = true
	return nil
}

// BackgroundResidentPages reports how many pages are currently decrypted in
// the locked way.
func (sn *Sentry) BackgroundResidentPages() int {
	if sn.bg == nil {
		return 0
	}
	return len(sn.bg.fifo)
}

// BackgroundCapacityPages reports the session's slot count.
func (sn *Sentry) BackgroundCapacityPages() int {
	if sn.bg == nil {
		return 0
	}
	return len(sn.bg.slots)
}

// copyPage moves one page between physical locations through the CPU.
func (sn *Sentry) copyPage(dst, src mem.PhysAddr) {
	page := sn.stagingPage()
	sn.S.CPU.ReadPhys(src, page[:])
	sn.S.CPU.WritePhys(dst, page[:])
}

// bgPageOut evicts one slot: encrypt in place in the locked way, copy the
// ciphertext to the DRAM home, re-arm the trap.
func (sn *Sentry) bgPageOut(slot *bgSlot) {
	sn.cryptPage(slot.addr, slot.home, false, SealBg)
	sn.copyPage(slot.home, slot.addr)
	if pte := sn.bg.proc.AS.Lookup(slot.v); pte != nil {
		pte.Phys = slot.home
		pte.Encrypted = true
		pte.Young = false
	}
	slot.occupied = false
	sn.ctrBgOuts.Inc()
}

// bgPageIn services a young-bit fault for the background process.
func (sn *Sentry) bgPageIn(p *kernel.Process, v mmu.VirtAddr, pte *mmu.PTE) bool {
	st := sn.bg
	var slot *bgSlot
	for _, c := range st.slots {
		if !c.occupied {
			slot = c
			break
		}
	}
	if slot == nil {
		// Evict the oldest resident page.
		slot = st.fifo[0]
		st.fifo = st.fifo[1:]
		sn.bgPageOut(slot)
	}
	home := mem.PageBase(pte.Phys)
	sn.copyPage(slot.addr, home)
	sn.cryptPage(slot.addr, home, true, SealBg)
	slot.occupied = true
	slot.v = mmu.PageBase(v)
	slot.home = home
	st.fifo = append(st.fifo, slot)

	pte.Phys = slot.addr
	pte.Encrypted = false
	pte.Young = true
	sn.ctrBgIns.Inc()
	return true
}

// BeginBackgroundPinned is the §10 "architecture suggestions" variant: the
// session's on-SoC page pool comes from a dedicated pinned SRAM region
// (more iRAM) instead of locked cache ways. Functionally identical to
// BeginBackground, but it costs the rest of the system no L2 capacity and
// needs none of the way-locking choreography — the simplification the
// paper argues hardware vendors should offer.
func (sn *Sentry) BeginBackgroundPinned(p *kernel.Process, poolPages int) error {
	switch {
	case sn.K.State() == kernel.Unlocked:
		return fmt.Errorf("core: background sessions only run while locked: %w", kernel.ErrLocked)
	case sn.bg != nil:
		return fmt.Errorf("core: a background session is already active")
	case !p.Sensitive || !p.Background:
		return fmt.Errorf("core: process %q is not a sensitive background process", p.Name)
	case poolPages <= 0:
		return fmt.Errorf("core: pool must be at least one page")
	}
	st := &bgState{proc: p}
	for i := 0; i < poolPages; i++ {
		addr, err := sn.iram.Alloc(mem.PageSize)
		if err != nil {
			for _, a := range st.pinned {
				sn.iram.Release(a)
			}
			return fmt.Errorf("core: pinned pool: %w", err)
		}
		st.pinned = append(st.pinned, addr)
		st.slots = append(st.slots, &bgSlot{addr: addr})
	}
	sn.bg = st
	p.Schedulable = true
	return nil
}

// endBackground flushes every resident page back to encrypted DRAM and
// releases the session's on-SoC memory (erasing it). Runs on unlock;
// idempotent.
func (sn *Sentry) endBackground() {
	if sn.bg == nil {
		return
	}
	for _, slot := range sn.bg.fifo {
		if slot.occupied {
			sn.bgPageOut(slot)
		}
	}
	sn.bg.fifo = nil
	sn.releaseBgWays(sn.bg)
	ff := make([]byte, mem.PageSize)
	for i := range ff {
		ff[i] = 0xFF
	}
	for _, addr := range sn.bg.pinned {
		sn.S.CPU.WritePhys(addr, ff) // erase before release, like unlock does
		sn.iram.Release(addr)
	}
	sn.bg = nil
}

func (sn *Sentry) releaseBgWays(st *bgState) {
	for _, way := range st.ways {
		if err := sn.locker.UnlockWay(way); err != nil {
			panic(fmt.Sprintf("core: unlock way %d: %v", way, err))
		}
	}
	st.ways = nil
}
