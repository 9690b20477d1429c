// Package cpu models an application core of the SoC at the granularity
// Sentry cares about: where loads and stores are routed (iRAM, cache, or
// uncached DRAM), what the interrupt state permits (a context switch spills
// the register file to the kernel stack in DRAM — the leak AES On SoC's
// IRQ bracket exists to prevent), and how long it all takes.
//
// The CPU does not interpret an instruction set. "Code" is Go functions;
// what the simulator makes faithful is every *data* access those functions
// perform against the simulated memory system, because data placement and
// observability are what the paper's security argument rests on.
package cpu

import (
	"encoding/binary"
	"fmt"

	"sentry/internal/bus"
	"sentry/internal/cache"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/obs"
	"sentry/internal/sim"
)

// Guard authorises physical accesses. The TrustZone controller implements
// it to protect iRAM from the normal world; a nil Guard allows everything.
type Guard interface {
	CheckCPUAccess(addr mem.PhysAddr, write bool) error
}

// RegCount is the size of the architectural register file (ARM r0–r15).
const RegCount = 16

// ErrTooManyFaults is returned when the fault handler keeps failing to fix
// up a translation; it indicates an OS bug rather than an application error.
var ErrTooManyFaults = fmt.Errorf("cpu: translation fault not resolved by handler")

// CPU is a single simulated core.
type CPU struct {
	clock  *sim.Clock
	meter  *sim.Meter
	costs  *sim.CostTable
	energy *sim.EnergyTable

	l2   *cache.L2
	bus  *bus.Bus
	iram *mem.Device

	// Guard filters physical accesses (TrustZone). May be nil.
	Guard Guard

	// AS is the current address space; swapped by the scheduler.
	AS *mmu.AddressSpace

	// FaultHandler is invoked on translation faults. Returning true means
	// the fault was fixed up and the access should be retried. Installed by
	// the kernel.
	FaultHandler func(f *mmu.Fault) bool

	// Regs is the architectural register file. Crypto code models keeping
	// sensitive state "in registers" by staging it here; a context switch
	// with interrupts enabled spills it to the kernel stack in DRAM.
	Regs [RegCount]uint32

	// KernelStack is the physical top-of-stack the register file spills to
	// on a context switch.
	KernelStack mem.PhysAddr

	irqOn bool

	// Stats
	Faults         uint64
	ContextSwaps   uint64
	RegisterSpills uint64

	// Observability: nil (and nil-safe) until SetObs wires them.
	trace     *obs.Tracer
	ctrFaults *obs.Counter
	ctrSwaps  *obs.Counter
	ctrSpills *obs.Counter
}

// New returns a CPU wired to the given memory system. iram may be nil for
// platforms whose iRAM is not CPU-visible.
func New(clock *sim.Clock, meter *sim.Meter, costs *sim.CostTable, energy *sim.EnergyTable,
	l2 *cache.L2, b *bus.Bus, iram *mem.Device) *CPU {
	return &CPU{
		clock: clock, meter: meter, costs: costs, energy: energy,
		l2: l2, bus: b, iram: iram, irqOn: true,
	}
}

// Clone returns a CPU with identical architectural state — registers,
// interrupt mask, kernel stack pointer, and stats — wired to the given
// memory system. Guard, AS, and FaultHandler point at world objects, so
// the caller re-wires them against the cloned world; observability is
// re-wired through SetObs.
func (c *CPU) Clone(clock *sim.Clock, meter *sim.Meter, l2 *cache.L2, b *bus.Bus, iram *mem.Device) *CPU {
	n := New(clock, meter, c.costs, c.energy, l2, b, iram)
	n.Regs = c.Regs
	n.KernelStack = c.KernelStack
	n.irqOn = c.irqOn
	n.Faults = c.Faults
	n.ContextSwaps = c.ContextSwaps
	n.RegisterSpills = c.RegisterSpills
	return n
}

// SetObs wires the observability layer. Either argument may be nil.
func (c *CPU) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	c.trace = tr
	c.ctrFaults = reg.Counter("cpu.faults")
	c.ctrSwaps = reg.Counter("cpu.context_switches")
	c.ctrSpills = reg.Counter("cpu.register_spills")
}

// Clock returns the CPU's clock (shared with the rest of the platform).
func (c *CPU) Clock() *sim.Clock { return c.clock }

// Meter returns the platform energy meter.
func (c *CPU) Meter() *sim.Meter { return c.meter }

// Costs returns the platform cost table.
func (c *CPU) Costs() *sim.CostTable { return c.costs }

// Energy returns the platform energy table.
func (c *CPU) Energy() *sim.EnergyTable { return c.energy }

// L2 returns the cache the core's DRAM accesses go through.
func (c *CPU) L2() *cache.L2 { return c.l2 }

func (c *CPU) inIRAM(addr mem.PhysAddr) bool {
	return c.iram != nil && c.iram.Contains(addr)
}

func (c *CPU) guard(addr mem.PhysAddr, write bool) {
	if c.Guard == nil {
		return
	}
	if err := c.Guard.CheckCPUAccess(addr, write); err != nil {
		// A denied physical access is a synchronous external abort; in the
		// simulator it is always a programming error in the caller.
		panic(err)
	}
}

// ReadPhys performs a cacheable physical read into dst. iRAM accesses stay
// on-SoC; DRAM accesses go through the L2 on its line-granular burst path.
func (c *CPU) ReadPhys(addr mem.PhysAddr, dst []byte) {
	c.guard(addr, false)
	if c.inIRAM(addr) {
		c.iram.Read(addr, dst)
		c.chargeIRAM(len(dst))
		return
	}
	c.l2.Read(addr, dst)
}

// WritePhys performs a cacheable physical write of src.
func (c *CPU) WritePhys(addr mem.PhysAddr, src []byte) {
	c.guard(addr, true)
	if c.inIRAM(addr) {
		c.iram.Write(addr, src)
		c.chargeIRAM(len(src))
		return
	}
	c.l2.Write(addr, src)
}

// ReadPhysUncached reads DRAM bypassing the cache (device/strongly-ordered
// mapping). The transfer is visible on the external bus.
func (c *CPU) ReadPhysUncached(addr mem.PhysAddr, dst []byte) {
	c.guard(addr, false)
	if c.inIRAM(addr) {
		c.iram.Read(addr, dst)
		c.chargeIRAM(len(dst))
		return
	}
	c.bus.ReadInto("cpu-uncached", addr, dst)
}

// WritePhysUncached writes DRAM bypassing the cache.
func (c *CPU) WritePhysUncached(addr mem.PhysAddr, src []byte) {
	c.guard(addr, true)
	if c.inIRAM(addr) {
		c.iram.Write(addr, src)
		c.chargeIRAM(len(src))
		return
	}
	c.bus.WriteFrom("cpu-uncached", addr, src)
}

func (c *CPU) chargeIRAM(n int) {
	words := uint64((n + 3) / 4)
	c.clock.Advance(words * c.costs.IRAMAccess)
	c.meter.Charge(float64(words) * c.energy.IRAMAccessPJ)
}

// translate resolves v, invoking the fault handler and retrying as needed.
func (c *CPU) translate(v mmu.VirtAddr, write bool) (mem.PhysAddr, error) {
	if c.AS == nil {
		return 0, fmt.Errorf("cpu: no address space installed")
	}
	c.clock.Advance(c.costs.TLBFill)
	for attempt := 0; attempt < 8; attempt++ {
		p, fault := c.AS.Translate(v, write)
		if fault == nil {
			return p, nil
		}
		c.Faults++
		c.ctrFaults.Inc()
		c.clock.Advance(c.costs.PageFaultTrap)
		if c.FaultHandler == nil || !c.FaultHandler(fault) {
			return 0, fault
		}
	}
	return 0, ErrTooManyFaults
}

// splitByPage runs fn per page-contiguous fragment of a virtual range.
func splitByPage(v mmu.VirtAddr, n int, fn func(v mmu.VirtAddr, n int) error) error {
	for n > 0 {
		step := int(mmu.PageSize - (uint64(v) & (mmu.PageSize - 1)))
		if step > n {
			step = n
		}
		if err := fn(v, step); err != nil {
			return err
		}
		v += mmu.VirtAddr(step)
		n -= step
	}
	return nil
}

// Load reads len(dst) bytes from virtual address v in the current address
// space, faulting (and letting the OS fix up) as required.
func (c *CPU) Load(v mmu.VirtAddr, dst []byte) error {
	return splitByPage(v, len(dst), func(v mmu.VirtAddr, n int) error {
		p, err := c.translate(v, false)
		if err != nil {
			return err
		}
		c.ReadPhys(p, dst[:n])
		dst = dst[n:]
		return nil
	})
}

// Store writes src at virtual address v in the current address space.
func (c *CPU) Store(v mmu.VirtAddr, src []byte) error {
	return splitByPage(v, len(src), func(v mmu.VirtAddr, n int) error {
		p, err := c.translate(v, true)
		if err != nil {
			return err
		}
		c.WritePhys(p, src[:n])
		src = src[n:]
		return nil
	})
}

// LoadWord loads a 32-bit little-endian word from v.
func (c *CPU) LoadWord(v mmu.VirtAddr) (uint32, error) {
	var b [4]byte
	if err := c.Load(v, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// StoreWord stores a 32-bit little-endian word at v.
func (c *CPU) StoreWord(v mmu.VirtAddr, w uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	return c.Store(v, b[:])
}

// DisableIRQ masks interrupts. While masked, the scheduler cannot preempt,
// so the register file cannot be spilled to DRAM — the first half of the
// paper's onsoc_disable_irq() bracket.
func (c *CPU) DisableIRQ() {
	c.irqOn = false
	c.clock.Advance(c.costs.IRQToggle)
	if c.trace != nil {
		c.trace.Emit(obs.Event{Cycle: c.clock.Cycles(), Kind: obs.KindIRQMask, Arg: 1})
	}
}

// EnableIRQ unmasks interrupts. Callers holding secrets in registers must
// call ZeroRegs first — the onsoc_enable_irq() macro does both.
func (c *CPU) EnableIRQ() {
	c.irqOn = true
	c.clock.Advance(c.costs.IRQToggle)
	if c.trace != nil {
		c.trace.Emit(obs.Event{Cycle: c.clock.Cycles(), Kind: obs.KindIRQMask, Arg: 0})
	}
}

// IRQEnabled reports whether interrupts are unmasked.
func (c *CPU) IRQEnabled() bool { return c.irqOn }

// ZeroRegs clears the architectural register file.
func (c *CPU) ZeroRegs() {
	for i := range c.Regs {
		c.Regs[i] = 0
	}
}

// ContextSwitch models a preemption: if interrupts are enabled, the current
// register file is spilled to the kernel stack (a cacheable DRAM write —
// this is the leak path), the address space is swapped, and true is
// returned. With interrupts masked the switch cannot happen and false is
// returned.
func (c *CPU) ContextSwitch(next *mmu.AddressSpace) bool {
	if !c.irqOn {
		return false
	}
	c.SpillRegs()
	c.AS = next
	c.ContextSwaps++
	c.ctrSwaps.Inc()
	c.clock.Advance(c.costs.ContextSwitch)
	return true
}

// SpillRegs writes the register file to the kernel stack. The bytes land in
// cacheable DRAM: they may linger in the L2 and reach the DRAM chips on any
// eviction or clean.
func (c *CPU) SpillRegs() {
	if c.KernelStack == 0 {
		return
	}
	buf := make([]byte, 4*RegCount)
	for i, r := range c.Regs {
		binary.LittleEndian.PutUint32(buf[i*4:], r)
	}
	c.WritePhys(c.KernelStack-mem.PhysAddr(len(buf)), buf)
	c.RegisterSpills++
	c.ctrSpills.Inc()
}
