// Package cache models the shared L2 cache of a Cortex-A9 class SoC managed
// by a PL310-style controller. It implements the three behaviours Sentry
// depends on:
//
//   - Lockdown by way: ways can be excluded from allocation, so lines already
//     resident in an excluded ("locked") way remain hittable but are never
//     evicted or written back until the way is unlocked. This is the paper's
//     §4.2/§4.5 mechanism for pinning plaintext on the SoC.
//   - Maskable maintenance: clean/invalidate operations take a way mask, so
//     an OS can flush "the whole cache" while skipping locked ways — the
//     Linux change the paper describes (428 → 676 lines in their port).
//   - DMA bypass: DMA engines transfer against DRAM directly (package dma),
//     never through this cache, so locked plaintext is invisible to DMA.
//
// The cache is physically indexed and tagged, write-back, write-allocate,
// with round-robin victim selection among allocation-enabled ways. When no
// way in a set is allocation-enabled, accesses bypass the cache and go to
// DRAM uncached — matching the PL310's behaviour when software locks every
// way.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"sentry/internal/bus"
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/sim"
)

// Config sizes the cache geometry and selects behavioural variants.
type Config struct {
	Ways     int // associativity (PL310: up to 16; Tegra 3 uses 8)
	WaySize  int // bytes per way (Tegra 3: 128 KB)
	LineSize int // bytes per line (PL310: 32)

	// AutoLock models the inclusive-L2 behaviour Green et al. describe
	// (AutoLock, PAPERS.md): a line held in another core's L1 is
	// transparently locked in L2 — a different core cannot evict it. Each
	// line tracks a holder bitmask of the masters that touched it since its
	// fill; pickVictim skips ways whose line is cross-held, and an access
	// that finds no evictable way bypasses to DRAM.
	AutoLock bool

	// RandomizedIndex enables a keyed set-index permutation (the
	// randomized-cache defence variant, PAPERS.md): the set for a line is
	// its base index XORed with a keyed hash of the tag, re-keyed per boot
	// via SetIndexKey. Congruence — which addresses contend for a set —
	// becomes secret, defeating eviction-set construction.
	RandomizedIndex bool
}

// Tegra3Config is the 1 MB, 8-way, 32 B/line geometry of the Tegra 3 board.
var Tegra3Config = Config{Ways: 8, WaySize: 128 * 1024, LineSize: 32}

// Stats counts cache events since the last reset.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Bypasses   uint64 // accesses that went uncached because no way could allocate
}

// line is deliberately pointer-free (16 bytes): the per-cache slab holds
// sets×ways of them, and a pointer-free slab costs the allocator a plain
// memclr and the garbage collector nothing at all — with a []byte inside,
// every booted world added a megabyte the GC had to scan. Line contents live
// in the cache's bufs table; buf is a 1-based index into it (0 = no buffer,
// which is also the zero value, so a fresh slab needs no initialisation).
type line struct {
	valid bool
	dirty bool
	// shared marks the line's buffer as aliased with a clone
	// (copy-on-write): every mutation of the contents must go through own()
	// or install a fresh buffer. Reads (write-backs, hits, ReadLine) use
	// shared buffers freely.
	shared bool
	// holder is the bitmask of masters (cores) that touched the line since
	// its fill — the AutoLock "held in some L1" approximation. Only
	// maintained when Config.AutoLock is set; it occupies struct padding,
	// so the slab stays the same size and remains pointer-free.
	holder uint8
	tag    uint64
	buf    uint32
}

// L2 is the second-level cache. It is not safe for concurrent use; the
// simulated platform is single-threaded by design.
type L2 struct {
	cfg    Config
	sets   int
	clock  *sim.Clock
	meter  *sim.Meter
	costs  *sim.CostTable
	energy *sim.EnergyTable
	bus    *bus.Bus

	// Geometry is power-of-two, so set/tag extraction is shift-and-mask —
	// index() runs on every access and must not divide.
	lineShift uint
	setShift  uint
	setMask   uint64
	offMask   uint64

	// lines is indexed [set][way]: lookup and victim selection walk the
	// ways of one set, so a set's ways must be contiguous in memory. All
	// rows are windows into slab, which Clone copies with one memmove.
	lines [][]line
	slab  []line
	// bufs is the line-contents table; line.buf indexes it 1-based. Its
	// length tracks the peak number of concurrently-filled lines, not the
	// cache capacity, and a clone shares the parent's buffers copy-on-write.
	// freeBufs lists slots detached by invalidation, reused by the next
	// fill so that invalidate/refill cycles do not grow the table.
	bufs     [][]byte
	freeBufs []uint32
	// meta owns slab, lines, validMask, validCount, tags, and victim (the
	// fields alias it); Release recycles the bundle through a pool so the
	// model checker's fork-heavy sweeps do not re-allocate ~¾ MB per clone.
	meta      *metaArrays
	validMask []uint32 // per-set bitmask of ways holding a valid line
	// validCount[w] is the number of valid lines way w holds — the sum of
	// validMask bit w over all sets. Maintenance walks consult it to skip
	// empty ways outright and to stop a walk once every valid line has been
	// visited: campaign workloads keep most ways nearly empty, so the full
	// Ways×Sets sweep is almost always cut short.
	validCount []int
	// dataArena is the tail of the current line-data allocation chunk; see
	// newLineData.
	dataArena []byte
	// tags mirrors the per-line tag fields as a dense flat array
	// (tags[set*Ways+way]): a tag-match scan touches one or two cache
	// lines of host memory instead of striding across line structs.
	// Entries go stale on invalidation; validMask arbitrates.
	tags      []uint64
	allocMask uint32 // bit w set => way w may allocate new lines
	victim    []int  // per-set round-robin pointer
	stats     Stats

	// master is the core id charged with subsequent accesses (AutoLock
	// holder tracking). The simulated platform is single-threaded, so this
	// is a mode switch, not a concurrency hazard; core 0 is the victim
	// system, attack drivers run as core 1.
	master uint8
	// indexKey keys the randomized index permutation (Config.RandomizedIndex);
	// re-drawn per boot by the SoC layer via SetIndexKey.
	indexKey uint64

	// Observability: nil (and nil-safe) until SetObs wires them.
	trace       *obs.Tracer
	ctrHits     *obs.Counter
	ctrMisses   *obs.Counter
	ctrBypasses *obs.Counter
	ctrWBs      *obs.Counter
	gaugeLocked *obs.Gauge

	// faults is nil unless a fault injector is attached; only the
	// maintenance entry points consult it, never the access fast path.
	faults FaultInjector

	// frozen marks a cache that FreezeShared pinned read-only: every valid
	// line's buffer is already flagged shared, so Clone skips its parent-side
	// mutation pass and concurrent Clone/Deflate against it are safe.
	frozen bool
	// defl, when non-nil, means the cache has been re-encoded as a delta
	// against a frozen base (Deflate): the dense arrays are released and the
	// only legal operations are Clone (which inflates) and Release.
	defl *l2Delta
}

// FaultInjector perturbs cache-maintenance operations. DropMaint is
// consulted once at the entry of each kernel-reachable maintenance
// operation (op names: "clean-ways", "invalidate-ways", "clean-range",
// "invalidate-range"); returning true silently drops the whole operation
// (a glitched controller command). Implementations may instead panic to
// model power loss at that point — no part of the operation has run yet.
type FaultInjector interface {
	DropMaint(op string) bool
}

// metaArrays bundles the dense per-cache metadata every cache owns
// privately: the line slab, its per-set windows, the tag mirror, the
// validity tracking, and the per-set victim pointers. Forking a world
// clones its L2, and a model-checking sweep forks worlds thousands of
// times a second — a fresh ~¾ MB of zeroed allocations per clone made a
// fork cost as much as a cold boot, nearly all of it allocator and GC
// work. Dead caches hand their bundle back through Release, and the next
// New or Clone reuses it.
type metaArrays struct {
	sets, ways int
	slab       []line
	lines      [][]line
	validMask  []uint32
	validCount []int
	tags       []uint64
	victim     []int
}

var metaPool sync.Pool

// newMeta returns a bundle for the geometry, reusing a pooled one when the
// dimensions match. zeroed guarantees cleared contents (a cold boot needs
// an empty cache); Clone passes false because it overwrites every entry
// from the parent and the clearing would be pure waste.
func newMeta(sets, ways int, zeroed bool) *metaArrays {
	if a, _ := metaPool.Get().(*metaArrays); a != nil && a.sets == sets && a.ways == ways {
		if zeroed {
			clear(a.slab)
			clear(a.validMask)
			clear(a.validCount)
			clear(a.tags)
			clear(a.victim)
		}
		return a
	}
	a := &metaArrays{
		sets: sets, ways: ways,
		slab:       make([]line, sets*ways),
		lines:      make([][]line, sets),
		validMask:  make([]uint32, sets),
		validCount: make([]int, ways),
		tags:       make([]uint64, sets*ways),
		victim:     make([]int, sets),
	}
	// All line structs come from one pointer-free slab allocation: tens of
	// thousands of tiny per-line allocations per booted platform add up
	// across experiments. Line contents are NOT allocated here — a line
	// gets a buffer on first fill (newLineData) — because campaign and
	// experiment workloads touch a small fraction of the cache, and zeroing
	// a capacity-sized data slab per booted world dominated the boot
	// profile.
	for s, slab := 0, a.slab; s < sets; s++ {
		a.lines[s], slab = slab[:ways:ways], slab[ways:]
	}
	return a
}

// Release returns the cache's private metadata arrays to the clone pool
// and leaves the cache unusable. Only an exclusive owner may call it —
// the arrays are recycled into future caches, so any later use of this
// one would corrupt an unrelated world. Line-content buffers are never
// recycled: they may be shared copy-on-write with live clones.
func (c *L2) Release() {
	if c.meta == nil {
		return
	}
	metaPool.Put(c.meta)
	c.meta = nil
	c.lines, c.slab, c.validMask, c.validCount, c.tags, c.victim = nil, nil, nil, nil, nil, nil
}

// New returns an L2 of the given geometry in front of the given bus.
func New(cfg Config, clock *sim.Clock, meter *sim.Meter, costs *sim.CostTable, energy *sim.EnergyTable, b *bus.Bus) *L2 {
	return newL2(cfg, clock, meter, costs, energy, b, true)
}

func newL2(cfg Config, clock *sim.Clock, meter *sim.Meter, costs *sim.CostTable, energy *sim.EnergyTable, b *bus.Bus, zeroed bool) *L2 {
	if cfg.Ways <= 0 || cfg.Ways > 32 {
		panic(fmt.Sprintf("cache: unsupported way count %d", cfg.Ways))
	}
	if cfg.WaySize%cfg.LineSize != 0 {
		panic("cache: way size must be a multiple of line size")
	}
	sets := cfg.WaySize / cfg.LineSize
	if bits.OnesCount(uint(cfg.LineSize)) != 1 || bits.OnesCount(uint(sets)) != 1 {
		panic("cache: line size and set count must be powers of two")
	}
	c := &L2{
		cfg: cfg, sets: sets,
		clock: clock, meter: meter, costs: costs, energy: energy, bus: b,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		offMask:   uint64(cfg.LineSize - 1),
		allocMask: (1 << cfg.Ways) - 1,
	}
	c.meta = newMeta(sets, cfg.Ways, zeroed)
	c.slab = c.meta.slab
	c.lines = c.meta.lines
	c.validMask = c.meta.validMask
	c.validCount = c.meta.validCount
	c.tags = c.meta.tags
	c.victim = c.meta.victim
	return c
}

// newLineData returns a zeroed line-sized buffer, carving it from a chunked
// arena so filling N distinct lines costs N/chunk allocations, not N.
func (c *L2) newLineData() []byte {
	if len(c.dataArena) < c.cfg.LineSize {
		c.dataArena = make([]byte, 256*c.cfg.LineSize)
	}
	d := c.dataArena[:c.cfg.LineSize:c.cfg.LineSize]
	c.dataArena = c.dataArena[c.cfg.LineSize:]
	return d
}

// lineData returns ln's contents. Valid lines always have a buffer.
func (c *L2) lineData(ln *line) []byte { return c.bufs[ln.buf-1] }

// newBuf installs a private buffer for ln and returns its contents,
// preferring a slot detached by an earlier invalidation. The buffer is NOT
// zeroed: every caller overwrites the whole line (bus refill in fill, full
// copy in own).
func (c *L2) newBuf(ln *line) []byte {
	if n := len(c.freeBufs); n > 0 {
		idx := c.freeBufs[n-1]
		c.freeBufs = c.freeBufs[:n-1]
		d := c.bufs[idx-1]
		if d == nil { // slot was shared with a clone, or emptied by Clone
			d = c.newLineData()
			c.bufs[idx-1] = d
		}
		ln.buf, ln.shared = idx, false
		return d
	}
	d := c.newLineData()
	c.bufs = append(c.bufs, d)
	ln.buf, ln.shared = uint32(len(c.bufs)), false
	return d
}

// dropBuf detaches ln's buffer (if any) on invalidation, recycling its slot.
// A buffer shared with a clone is left to the clone: the slot is nilled so
// a later reuse allocates fresh storage.
func (c *L2) dropBuf(ln *line) {
	if ln.buf == 0 {
		return
	}
	if ln.shared {
		c.bufs[ln.buf-1] = nil
	}
	c.freeBufs = append(c.freeBufs, ln.buf)
	ln.buf, ln.shared = 0, false
}

// own makes ln's contents private before a partial mutation, copying the
// shared buffer aside. No-op for lines that already own their buffer.
func (c *L2) own(ln *line) {
	if !ln.shared {
		return
	}
	old := c.lineData(ln)
	copy(c.newBuf(ln), old)
}

// Config returns the cache geometry.
func (c *L2) Config() Config { return c.cfg }

// Sets returns the number of sets per way.
func (c *L2) Sets() int { return c.sets }

// SizeBytes returns the total cache capacity.
func (c *L2) SizeBytes() int { return c.cfg.Ways * c.cfg.WaySize }

// Stats returns a snapshot of the event counters.
func (c *L2) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters.
func (c *L2) ResetStats() { c.stats = Stats{} }

// SetFaults attaches (or, with nil, detaches) a fault injector.
func (c *L2) SetFaults(f FaultInjector) { c.faults = f }

// SetObs wires the observability layer. Either argument may be nil.
func (c *L2) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	c.trace = tr
	c.ctrHits = reg.Counter("cache.hits")
	c.ctrMisses = reg.Counter("cache.misses")
	c.ctrBypasses = reg.Counter("cache.bypasses")
	c.ctrWBs = reg.Counter("cache.writebacks")
	c.gaugeLocked = reg.Gauge("cache.locked_ways")
	c.gaugeLocked.Set(int64(c.lockedWays()))
}

// lockedWays counts ways currently excluded from allocation.
func (c *L2) lockedWays() int {
	return c.cfg.Ways - bits.OnesCount32(c.allocMask)
}

// AllocMask returns the current allocation-enable mask. Bit w set means way
// w accepts new allocations; a clear bit is a "locked" way in the paper's
// terminology (its resident lines are pinned).
func (c *L2) AllocMask() uint32 { return c.allocMask }

// SetAllocMask programs the lockdown register. This is a secure-world-only
// operation on real hardware; the tz package enforces that, this method is
// the raw controller interface.
func (c *L2) SetAllocMask(mask uint32) {
	old := c.allocMask
	c.allocMask = mask & ((1 << c.cfg.Ways) - 1)
	if c.trace != nil && old != c.allocMask {
		// One event per way whose lockdown state flipped: a newly cleared
		// alloc bit is a lock, a newly set bit an unlock.
		cyc := c.clock.Cycles()
		for w := 0; w < c.cfg.Ways; w++ {
			bit := uint32(1) << w
			switch {
			case old&bit != 0 && c.allocMask&bit == 0:
				c.trace.Emit(obs.Event{Cycle: cyc, Kind: obs.KindCacheLock, Size: uint64(w), Arg: uint64(c.allocMask)})
			case old&bit == 0 && c.allocMask&bit != 0:
				c.trace.Emit(obs.Event{Cycle: cyc, Kind: obs.KindCacheUnlock, Size: uint64(w), Arg: uint64(c.allocMask)})
			}
		}
	}
	c.gaugeLocked.Set(int64(c.lockedWays()))
}

// SetMaster selects the core id charged with subsequent accesses. Only
// meaningful under Config.AutoLock, where it decides which holder bit an
// access sets and which holders block eviction. The victim system is core 0
// (the default); attack drivers switch to core 1 around their accesses.
func (c *L2) SetMaster(core int) { c.master = uint8(core) }

// Master returns the current accessing core id.
func (c *L2) Master() int { return int(c.master) }

// SetIndexKey keys the randomized index permutation and enables it. Only
// legal on an empty cache (the key changes where every line lives): the SoC
// layer calls it at cold boot and after every power cycle, right after the
// controller reset.
func (c *L2) SetIndexKey(key uint64) {
	for _, n := range c.validCount {
		if n != 0 {
			panic("cache: SetIndexKey on a non-empty cache")
		}
	}
	c.indexKey = key
	c.cfg.RandomizedIndex = true
}

// SetIndex returns the set index addr maps to under the current index
// function (including the randomized permutation when enabled). Test and
// attack-driver instrumentation.
func (c *L2) SetIndex(addr mem.PhysAddr) int {
	set, _ := c.index(addr)
	return set
}

// mix64 is the splitmix64 finalizer — a cheap invertible mixer used to key
// the randomized index permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scrambleSet applies the keyed index permutation for tag. XOR with a
// per-tag hash is self-inverse, so the same function maps base→scrambled in
// index() and scrambled→base in lineBase().
func (c *L2) scrambleSet(set int, tag uint64) int {
	return set ^ int(mix64(tag^c.indexKey)&c.setMask)
}

func (c *L2) index(addr mem.PhysAddr) (set int, tag uint64) {
	lineN := uint64(addr) >> c.lineShift
	set = int(lineN & c.setMask)
	tag = lineN >> c.setShift
	if c.cfg.RandomizedIndex {
		set = c.scrambleSet(set, tag)
	}
	return set, tag
}

// lookup returns the way holding (set, tag), or -1. It scans the dense tag
// array; a matching but stale entry is rejected by its clear validMask bit
// (and a fresh copy of the same tag in another way is then still found).
func (c *L2) lookup(set int, tag uint64) int {
	vm := c.validMask[set]
	if vm == 0 {
		return -1
	}
	base := set * c.cfg.Ways
	row := c.tags[base : base+c.cfg.Ways]
	for w := range row {
		if row[w] == tag && vm&(1<<w) != 0 {
			return w
		}
	}
	return -1
}

// pickVictim chooses an allocation-enabled way in set, preferring invalid
// lines, else round-robin. Returns -1 if no way may allocate.
func (c *L2) pickVictim(set int) int {
	if c.allocMask == 0 {
		return -1
	}
	// Lowest allocation-enabled way without a valid line, if any — one mask
	// op instead of a scan across the ways.
	if inv := c.allocMask &^ c.validMask[set]; inv != 0 {
		return bits.TrailingZeros32(inv)
	}
	avail := c.allocMask
	if c.cfg.AutoLock {
		// AutoLock: a valid line held in another core's L1 is transparently
		// locked — the current master may not evict it. Invalid ways were
		// handled above, so every candidate line here is valid.
		other := ^(uint8(1) << c.master)
		row := c.lines[set]
		for w := 0; w < c.cfg.Ways; w++ {
			if avail&(1<<w) != 0 && row[w].holder&other != 0 {
				avail &^= 1 << w
			}
		}
		if avail == 0 {
			return -1
		}
	}
	// Round-robin: the first available way at or after the pointer, found
	// by rotating the mask instead of scanning way by way.
	ways := c.cfg.Ways
	start := c.victim[set]
	full := uint32(1)<<ways - 1
	rot := (avail >> start) | (avail << (ways - start))
	w := start + bits.TrailingZeros32(rot&full)
	if w >= ways {
		w -= ways
	}
	if w+1 == ways {
		c.victim[set] = 0
	} else {
		c.victim[set] = w + 1
	}
	return w
}

func (c *L2) lineBase(set int, tag uint64) mem.PhysAddr {
	if c.cfg.RandomizedIndex {
		set = c.scrambleSet(set, tag) // XOR permutation is self-inverse
	}
	return mem.PhysAddr((tag*uint64(c.sets) + uint64(set)) * uint64(c.cfg.LineSize))
}

// writeBack cleans one line to DRAM over the bus.
func (c *L2) writeBack(set, way int) {
	ln := &c.lines[set][way]
	if !ln.valid || !ln.dirty {
		return
	}
	c.bus.WriteFrom("l2", c.lineBase(set, ln.tag), c.lineData(ln))
	ln.dirty = false
	c.stats.WriteBacks++
	c.ctrWBs.Inc()
}

// fill allocates (set,way) with the line containing addr, evicting as needed.
func (c *L2) fill(set, way int, tag uint64) *line {
	ln := &c.lines[set][way]
	if ln.valid {
		c.stats.Evictions++
		c.writeBack(set, way)
	}
	if ln.buf == 0 || ln.shared {
		// First fill, or the old contents are shared with a clone: either
		// way the bus read below overwrites the whole line, so take a fresh
		// buffer rather than copying.
		c.newBuf(ln)
	}
	ln.valid = true
	if c.validMask[set]&(1<<way) == 0 {
		c.validMask[set] |= 1 << way
		c.validCount[way]++
	}
	ln.dirty = false
	ln.holder = 0 // a refill replaces the previous occupant's holders
	ln.tag = tag
	c.tags[set*c.cfg.Ways+way] = tag
	c.bus.ReadInto("l2", c.lineBase(set, tag), c.lineData(ln))
	return ln
}

func (c *L2) chargeHit(nbytes int) {
	words := uint64((nbytes + 3) / 4)
	c.clock.Advance(words * c.costs.L2Hit)
	c.meter.Charge(float64(words) * c.energy.L2HitPJ)
}

// access performs one within-line cacheable access.
func (c *L2) access(addr mem.PhysAddr, buf []byte, isWrite bool) {
	set, tag := c.index(addr)
	way := c.lookup(set, tag)
	if way < 0 {
		victim := c.pickVictim(set)
		if victim < 0 {
			// Every way locked: the controller bypasses to DRAM with
			// single-beat transactions (no burst amortisation).
			c.stats.Bypasses++
			c.ctrBypasses.Inc()
			c.clock.Advance(c.costs.BypassPenalty)
			if isWrite {
				c.bus.WriteFrom("cpu-uncached", addr, buf)
			} else {
				c.bus.ReadInto("cpu-uncached", addr, buf)
			}
			return
		}
		c.stats.Misses++
		c.ctrMisses.Inc()
		c.fill(set, victim, tag)
		way = victim
	} else {
		c.stats.Hits++
		c.ctrHits.Inc()
	}
	ln := &c.lines[set][way]
	if c.cfg.AutoLock {
		ln.holder |= 1 << c.master
	}
	off := int(uint64(addr) & c.offMask)
	if isWrite {
		c.own(ln)
		copy(c.lineData(ln)[off:], buf)
		ln.dirty = true
	} else {
		copy(buf, c.lineData(ln)[off:off+len(buf)])
	}
	c.chargeHit(len(buf))
}

// splitByLine runs fn once per line-sized fragment of [addr, addr+len(b)).
func (c *L2) splitByLine(addr mem.PhysAddr, b []byte, fn func(a mem.PhysAddr, frag []byte)) {
	for len(b) > 0 {
		off := int(uint64(addr) & c.offMask)
		n := c.cfg.LineSize - off
		if n > len(b) {
			n = len(b)
		}
		fn(addr, b[:n])
		addr += mem.PhysAddr(n)
		b = b[n:]
	}
}

// Read performs a cacheable read of len(dst) bytes at addr. It is the
// burst path: it moves one cache line per step with a plain loop (no
// per-fragment closure dispatch), charging exactly the same hits, misses,
// bypasses, write-backs, and bus transactions as a sequence of per-word
// accesses over the same range — the trace-bus experiment and
// TestTraceSumsEqualStats cross-check that equivalence.
func (c *L2) Read(addr mem.PhysAddr, dst []byte) {
	for len(dst) > 0 {
		n := c.cfg.LineSize - int(uint64(addr)&c.offMask)
		if n > len(dst) {
			n = len(dst)
		}
		c.access(addr, dst[:n], false)
		addr += mem.PhysAddr(n)
		dst = dst[n:]
	}
}

// Write performs a cacheable write of src at addr: the burst write twin of
// Read.
func (c *L2) Write(addr mem.PhysAddr, src []byte) {
	for len(src) > 0 {
		n := c.cfg.LineSize - int(uint64(addr)&c.offMask)
		if n > len(src) {
			n = len(src)
		}
		c.access(addr, src[:n], true)
		addr += mem.PhysAddr(n)
		src = src[n:]
	}
}

// CleanWays writes back every dirty line in the ways selected by mask,
// leaving them valid.
func (c *L2) CleanWays(mask uint32) {
	if f := c.faults; f != nil && f.DropMaint("clean-ways") {
		return
	}
	// The walk consults the per-set valid bitmap instead of dereferencing
	// every line struct: a full clean visits Ways×Sets lines, almost all of
	// which are invalid in the campaign workloads, and the bitmap scan reads
	// 4 bytes per set instead of a 40-byte struct per line. writeBack itself
	// still rechecks valid||dirty, and the visit order (way-outer,
	// set-inner) is unchanged — the energy meter is an order-sensitive float
	// accumulator, so reordering write-backs would shift recorded results.
	for w := 0; w < c.cfg.Ways; w++ {
		bit := uint32(1) << w
		if mask&bit == 0 || c.validCount[w] == 0 {
			continue
		}
		left := c.validCount[w]
		for s := 0; s < c.sets && left > 0; s++ {
			if c.validMask[s]&bit != 0 {
				c.writeBack(s, w)
				left--
			}
		}
	}
}

// InvalidateWays drops every line in the selected ways without writing
// anything back. Dirty data is lost — this is the dangerous half of cache
// maintenance, and also how the firmware resets the cache at boot.
func (c *L2) InvalidateWays(mask uint32) {
	if f := c.faults; f != nil && f.DropMaint("invalidate-ways") {
		return
	}
	c.invalidateWays(mask)
}

// invalidateWays drops the selected ways' valid lines. Invalid lines are
// skipped entirely (validMask gate — this walk was the single hottest
// function in the campaign profile before it), and invalidation simply
// detaches the line's buffer: only valid lines are ever read, so nothing
// needs zeroing, and a buffer shared with a clone stays intact for the
// clone. The next fill installs a fresh buffer.
func (c *L2) invalidateWays(mask uint32) {
	for w := 0; w < c.cfg.Ways; w++ {
		bit := uint32(1) << w
		if mask&bit == 0 {
			continue
		}
		for s := 0; s < c.sets && c.validCount[w] > 0; s++ {
			if c.validMask[s]&bit == 0 {
				continue
			}
			ln := &c.lines[s][w]
			ln.valid = false
			ln.dirty = false
			ln.holder = 0
			c.dropBuf(ln)
			c.validMask[s] &^= bit
			c.validCount[w]--
		}
	}
}

// Reset models the cache losing power: every line, every tag, and the
// lockdown register are physically lost, with nothing written back. Unlike
// the maintenance operations this is not a controller command an attacker
// could glitch — de-powered SRAM simply forgets — so it bypasses any
// attached fault injector.
func (c *L2) Reset() {
	c.SetAllocMask(c.AllWaysMask())
	c.invalidateWays(c.AllWaysMask())
}

// CleanInvalidateWays cleans then invalidates the selected ways. Calling it
// with a mask that includes a locked way WILL push that way's plaintext to
// DRAM — exactly the hazard the paper's kernel change guards against; the
// kernel package is responsible for masking locked ways out.
func (c *L2) CleanInvalidateWays(mask uint32) {
	c.CleanWays(mask)
	c.InvalidateWays(mask)
}

// AllWaysMask returns the mask selecting every way.
func (c *L2) AllWaysMask() uint32 { return (1 << c.cfg.Ways) - 1 }

// InvalidateRange drops every line overlapping [addr, addr+n) in any way,
// without write-back — the PL310's "invalidate by PA" operation. The
// kernel's zeroing thread uses it to discard stale plaintext lines after
// clearing a freed frame.
func (c *L2) InvalidateRange(addr mem.PhysAddr, n int) {
	if f := c.faults; f != nil && f.DropMaint("invalidate-range") {
		return
	}
	first := uint64(addr) / uint64(c.cfg.LineSize)
	last := (uint64(addr) + uint64(n) - 1) / uint64(c.cfg.LineSize)
	for ln := first; ln <= last; ln++ {
		// Route through index() so "by PA" maintenance finds the line under
		// the randomized index permutation too.
		set, tag := c.index(mem.PhysAddr(ln << c.lineShift))
		if w := c.lookup(set, tag); w >= 0 {
			e := &c.lines[set][w]
			e.valid = false
			e.dirty = false
			e.holder = 0
			c.dropBuf(e)
			c.validMask[set] &^= 1 << w
			c.validCount[w]--
		}
	}
}

// CleanRange writes back any dirty lines overlapping [addr, addr+n) —
// "clean by PA", the operation drivers use before starting a DMA read.
func (c *L2) CleanRange(addr mem.PhysAddr, n int) {
	if f := c.faults; f != nil && f.DropMaint("clean-range") {
		return
	}
	first := uint64(addr) / uint64(c.cfg.LineSize)
	last := (uint64(addr) + uint64(n) - 1) / uint64(c.cfg.LineSize)
	for ln := first; ln <= last; ln++ {
		set, tag := c.index(mem.PhysAddr(ln << c.lineShift))
		if w := c.lookup(set, tag); w >= 0 {
			c.writeBack(set, w)
		}
	}
}

// Probe reports, without side effects or timing charges, whether addr is
// resident, and if so in which way and whether dirty. Test instrumentation.
func (c *L2) Probe(addr mem.PhysAddr) (hit bool, way int, dirty bool) {
	set, tag := c.index(addr)
	w := c.lookup(set, tag)
	if w < 0 {
		return false, -1, false
	}
	return true, w, c.lines[set][w].dirty
}

// Snoop copies the cached bytes for addr into dst without timing charges or
// allocation, returning false if the line is not resident. Used by tests and
// by the confidentiality scanner, which must observe cache contents without
// perturbing them.
func (c *L2) Snoop(addr mem.PhysAddr, dst []byte) bool {
	ok := true
	c.splitByLine(addr, dst, func(a mem.PhysAddr, frag []byte) {
		set, tag := c.index(a)
		w := c.lookup(set, tag)
		if w < 0 {
			ok = false
			return
		}
		off := int(uint64(a) & c.offMask)
		copy(frag, c.lineData(&c.lines[set][w])[off:off+len(frag)])
	})
	return ok
}

// Clone returns an independent copy of the cache — geometry, lockdown
// register, victim pointers, stats, and every valid line's contents — wired
// to the given clock, meter, and bus. Valid lines' data is shared
// copy-on-write: both sides keep reading the same buffers, and whichever
// side first mutates a line (partial write, refill, invalidate) takes a
// private copy. Clone cost is therefore O(valid-line metadata), not O(data);
// a snapshot fork of a boot-warmed 1 MB cache copies pointers, not
// megabytes. Observability and fault wiring are left to the caller: a
// cloned world re-runs SetObs/SetFaults against its own registry and
// injector.
func (c *L2) Clone(clock *sim.Clock, meter *sim.Meter, b *bus.Bus) *L2 {
	if c.defl != nil {
		return c.inflate(clock, meter, b)
	}
	// Mark every valid line's buffer shared in the parent first, so the slab
	// memmove below propagates the flag to the clone in the same pass. A
	// frozen cache had this done once by FreezeShared and must not be written
	// again (clones may be taken from it concurrently).
	if !c.frozen {
		c.markShared()
	}
	n := newL2(c.cfg, clock, meter, c.costs, c.energy, b, false)
	copy(n.slab, c.slab)
	copy(n.validMask, c.validMask)
	copy(n.validCount, c.validCount)
	copy(n.tags, c.tags)
	copy(n.victim, c.victim)
	n.allocMask = c.allocMask
	n.stats = c.stats
	n.master = c.master
	n.indexKey = c.indexKey
	n.bufs = append([][]byte(nil), c.bufs...)
	n.freeBufs = append([]uint32(nil), c.freeBufs...)
	// Free slots still hold reusable buffers on the parent side; the clone
	// must not reuse those same buffers, so empty them in its table.
	for _, idx := range n.freeBufs {
		n.bufs[idx-1] = nil
	}
	return n
}

// ValidLines returns the number of valid lines currently held in way w.
func (c *L2) ValidLines(w int) int { return c.validCount[w] }

// FreezeShared pins the cache read-only for cloning: every valid line's
// buffer is marked shared once, so Clone and Deflate against this cache
// never write to it again and may run concurrently. The caller promises the
// cache will never be accessed or maintained after the freeze — it exists
// to serve as the immutable base of a fork/delta population (the fleet's
// shared boot world). Idempotent.
func (c *L2) FreezeShared() {
	if !c.frozen {
		c.markShared()
		c.frozen = true
	}
}

// markShared flags every valid line's buffer copy-on-write.
func (c *L2) markShared() {
	for s := 0; s < c.sets; s++ {
		vm := c.validMask[s]
		for vm != 0 {
			w := bits.TrailingZeros32(vm)
			vm &= vm - 1
			c.lines[s][w].shared = true
		}
	}
}

// l2Delta is a cache re-encoded against a frozen base: the sparse set of
// line positions whose (tag, flags, contents) differ from the base, packed
// line data for the valid ones, sparse victim-pointer diffs, and the scalar
// registers. ~40 bytes per diverged line instead of ~2 MB of dense arrays.
type l2Delta struct {
	base       *L2
	recs       []deltaLine
	data       []byte // packed line contents; valid recs consume LineSize each, in order
	victimSets []int32
	victimVals []uint8
	allocMask  uint32
	stats      Stats
	master     uint8
	indexKey   uint64
	randomized bool
}

// deltaLine is one diverged line position. valid=false records a line the
// base holds but this cache does not (inflate must invalidate it).
type deltaLine struct {
	set    int32
	way    uint8
	valid  bool
	dirty  bool
	holder uint8
	tag    uint64
}

// Deflate re-encodes the cache as a delta against base, releasing its dense
// metadata arrays to the clone pool. base must be frozen (FreezeShared) and
// share this cache's geometry. After Deflate the only legal operations are
// Clone — which reconstructs a dense, fully independent cache from
// base+delta — and Release. It returns an estimate of the bytes the delta
// retains, the cache's marginal cost over the shared base.
func (c *L2) Deflate(base *L2) int64 {
	if c.defl != nil {
		panic("cache: Deflate on an already-deflated cache")
	}
	if !base.frozen {
		panic("cache: Deflate against an unfrozen base (FreezeShared it first)")
	}
	if c.cfg.Ways != base.cfg.Ways || c.cfg.WaySize != base.cfg.WaySize || c.cfg.LineSize != base.cfg.LineSize {
		panic("cache: Deflate geometry mismatch")
	}
	d := &l2Delta{
		base:      base,
		allocMask: c.allocMask, stats: c.stats, master: c.master,
		indexKey: c.indexKey, randomized: c.cfg.RandomizedIndex,
	}
	ls := c.cfg.LineSize
	for s := 0; s < c.sets; s++ {
		cm, bm := c.validMask[s], base.validMask[s]
		for un := cm | bm; un != 0; {
			w := bits.TrailingZeros32(un)
			un &= un - 1
			bit := uint32(1) << w
			switch {
			case cm&bit != 0:
				ln := &c.lines[s][w]
				if bm&bit != 0 {
					bl := &base.lines[s][w]
					if ln.tag == bl.tag && ln.dirty == bl.dirty && ln.holder == bl.holder {
						cd, bd := c.lineData(ln), base.lineData(bl)
						// Same backing buffer (still COW-shared since the
						// fork), or equal bytes: either way, not a diff.
						if &cd[0] == &bd[0] || string(cd) == string(bd) {
							continue
						}
					}
				}
				d.recs = append(d.recs, deltaLine{
					set: int32(s), way: uint8(w), valid: true,
					dirty: ln.dirty, holder: ln.holder, tag: ln.tag,
				})
				d.data = append(d.data, c.lineData(ln)[:ls]...)
			default: // base holds a line here, this cache does not
				d.recs = append(d.recs, deltaLine{set: int32(s), way: uint8(w)})
			}
		}
		if c.victim[s] != base.victim[s] {
			d.victimSets = append(d.victimSets, int32(s))
			d.victimVals = append(d.victimVals, uint8(c.victim[s]))
		}
	}
	c.defl = d
	c.Release()
	c.bufs, c.freeBufs, c.dataArena = nil, nil, nil
	return c.FootprintBytes()
}

// inflate reconstructs a dense cache from base+delta. The base is frozen, so
// cloning it mutates nothing; delta lines are applied with private buffers.
func (c *L2) inflate(clock *sim.Clock, meter *sim.Meter, b *bus.Bus) *L2 {
	d := c.defl
	n := d.base.Clone(clock, meter, b)
	data := d.data
	ls := n.cfg.LineSize
	for _, rec := range d.recs {
		s, w := int(rec.set), int(rec.way)
		ln := &n.lines[s][w]
		bit := uint32(1) << w
		wasValid := n.validMask[s]&bit != 0
		if !rec.valid {
			ln.valid, ln.dirty, ln.holder = false, false, 0
			n.dropBuf(ln)
			if wasValid {
				n.validMask[s] &^= bit
				n.validCount[w]--
			}
			continue
		}
		if ln.buf != 0 {
			n.dropBuf(ln)
		}
		copy(n.newBuf(ln), data[:ls])
		data = data[ls:]
		ln.valid, ln.dirty, ln.holder, ln.tag = true, rec.dirty, rec.holder, rec.tag
		n.tags[s*n.cfg.Ways+w] = rec.tag
		if !wasValid {
			n.validMask[s] |= bit
			n.validCount[w]++
		}
	}
	for i, s := range d.victimSets {
		n.victim[s] = int(d.victimVals[i])
	}
	n.allocMask = d.allocMask
	n.stats = d.stats
	n.master = d.master
	n.indexKey = d.indexKey
	n.cfg.RandomizedIndex = d.randomized
	return n
}

// FootprintBytes estimates the private bytes this cache pins beyond any
// shared base: for a dense cache, its metadata arrays plus line buffers; for
// a deflated one, the delta records and packed data. Comparative gauge for
// the fleet's parked-bytes accounting, not an exact allocator measurement.
func (c *L2) FootprintBytes() int64 {
	if d := c.defl; d != nil {
		const recBytes = 16 // deltaLine struct, padded
		return int64(len(d.recs))*recBytes + int64(len(d.data)) +
			int64(len(d.victimSets))*5 + 64
	}
	nline := int64(c.sets * c.cfg.Ways)
	meta := nline*16 /* line */ + nline*8 /* tags */ +
		int64(c.sets)*(4 /* validMask */ +8 /* victim */) + int64(c.cfg.Ways)*8
	var bufBytes int64
	for _, b := range c.bufs {
		if b != nil {
			bufBytes += int64(len(b))
		}
	}
	return meta + bufBytes
}
