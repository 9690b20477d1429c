package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"sentry/internal/mem"
)

// cachesIdentical compares every architecturally visible piece of state:
// per-position validity, flags, tags, contents, victim pointers, lockdown,
// and stats.
func cachesIdentical(t *testing.T, a, b *L2) {
	t.Helper()
	if a.stats != b.stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.stats, b.stats)
	}
	if a.allocMask != b.allocMask || a.master != b.master || a.indexKey != b.indexKey {
		t.Fatal("registers diverged")
	}
	for s := 0; s < a.sets; s++ {
		if a.validMask[s] != b.validMask[s] {
			t.Fatalf("set %d validMask %#x vs %#x", s, a.validMask[s], b.validMask[s])
		}
		if a.victim[s] != b.victim[s] {
			t.Fatalf("set %d victim %d vs %d", s, a.victim[s], b.victim[s])
		}
		for w := 0; w < a.cfg.Ways; w++ {
			la, lb := &a.lines[s][w], &b.lines[s][w]
			if la.valid != lb.valid {
				t.Fatalf("set %d way %d valid %v vs %v", s, w, la.valid, lb.valid)
			}
			if !la.valid {
				continue
			}
			if la.tag != lb.tag || la.dirty != lb.dirty || la.holder != lb.holder {
				t.Fatalf("set %d way %d meta diverged", s, w)
			}
			if !bytes.Equal(a.lineData(la), b.lineData(lb)) {
				t.Fatalf("set %d way %d contents diverged", s, w)
			}
		}
	}
	for w := 0; w < a.cfg.Ways; w++ {
		if a.validCount[w] != b.validCount[w] {
			t.Fatalf("way %d validCount %d vs %d", w, a.validCount[w], b.validCount[w])
		}
	}
}

// driveTraffic applies a deterministic mixed workload derived from ops.
func driveTraffic(c *L2, ops []uint16) {
	buf := make([]byte, 48)
	for i, op := range ops {
		addr := dramBase + mem.PhysAddr(op)*13
		switch op % 7 {
		case 0, 1, 2:
			c.Write(addr, buf[:1+op%32])
		case 3, 4:
			c.Read(addr, buf[:1+op%48])
		case 5:
			c.CleanRange(addr, 64)
		default:
			if i%3 == 0 {
				c.InvalidateRange(addr, 64)
			} else {
				c.CleanWays(1 << (op % 4))
			}
		}
	}
}

// TestDeflateInflateRoundTrip drives random traffic on a fork of a frozen
// base, deflates it, and demands the inflated reconstruction be identical —
// in state and in subsequent behaviour — to a plain clone taken before the
// deflate.
func TestDeflateInflateRoundTrip(t *testing.T) {
	f := func(warm, ops []uint16) bool {
		base, _, _, _ := testRig(smallCfg)
		driveTraffic(base, warm)
		base.FreezeShared()

		clock := base.clock
		child := base.Clone(clock, base.meter, base.bus)
		driveTraffic(child, ops)

		// Reference: an ordinary clone of the diverged child.
		want := child.Clone(clock, base.meter, base.bus)
		if n := child.Deflate(base); n < 0 {
			t.Fatal("negative footprint")
		}
		got := child.Clone(clock, base.meter, base.bus)
		cachesIdentical(t, want, got)

		// The reconstruction must also behave identically going forward and
		// stay isolated from the base.
		baseBefore := base.stats
		driveTraffic(want, ops[:len(ops)/2])
		driveTraffic(got, ops[:len(ops)/2])
		cachesIdentical(t, want, got)
		if base.stats != baseBefore {
			t.Fatal("traffic on the reconstruction mutated the frozen base")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeflateShrinksFootprint pins the point of the exercise: a deflated
// cache must cost a small fraction of its dense encoding.
func TestDeflateShrinksFootprint(t *testing.T) {
	base, _, _, _ := testRig(Tegra3Config)
	for i := 0; i < 64; i++ {
		base.Write(dramBase+mem.PhysAddr(i*4096), []byte("boot"))
	}
	base.FreezeShared()
	child := base.Clone(base.clock, base.meter, base.bus)
	for i := 0; i < 16; i++ {
		child.Write(dramBase+mem.PhysAddr(i*64), []byte("diverged"))
	}
	dense := child.FootprintBytes()
	delta := child.Deflate(base)
	if delta*20 > dense {
		t.Fatalf("deflate kept %d of %d dense bytes — expected >20x reduction", delta, dense)
	}
	// Repeated hydration from the same delta must keep working.
	a := child.Clone(base.clock, base.meter, base.bus)
	b := child.Clone(base.clock, base.meter, base.bus)
	cachesIdentical(t, a, b)
}

// TestInflatedLineWritesCopyOut: an inflated cache takes its delta lines
// from the parked delta by reference, so a write to such a line must copy
// it aside. The delta's bytes stay intact, and a second inflate of the same
// delta reproduces the parked cache.
func TestInflatedLineWritesCopyOut(t *testing.T) {
	base, _, _, _ := testRig(smallCfg)
	base.Write(dramBase, []byte("boot line"))
	base.FreezeShared()
	child := base.Clone(base.clock, base.meter, base.bus)
	child.Write(dramBase, []byte("parked, over a base line"))
	child.Write(dramBase+0x40, []byte("parked, a line the base lacks"))
	want := child.Clone(base.clock, base.meter, base.bus)
	child.Deflate(base)
	parked := append([]byte(nil), child.defl.data...)

	a := child.Clone(base.clock, base.meter, base.bus)
	a.Write(dramBase, []byte("XXXXXXXX"))
	a.Write(dramBase+0x40, []byte("YYYYYYYY"))
	if !bytes.Equal(child.defl.data, parked) {
		t.Fatal("a write to an inflated line reached the parked delta")
	}
	cachesIdentical(t, want, child.Clone(base.clock, base.meter, base.bus))
}

// TestCopyOnWriteKeepsSlot: a write to, or a refill of, a line whose
// buffer is shared with a frozen base repoints the line's own slot in the
// bufs table, so a clone's table does not grow by one slot per shared line
// it copies out, and the base keeps its bytes.
func TestCopyOnWriteKeepsSlot(t *testing.T) {
	const sets, ways = 32, 4 // smallCfg: a 4096-byte way
	line := func(s, k int) mem.PhysAddr { return dramBase + mem.PhysAddr(s*32+k*4096) }
	base, _, _, _ := testRig(smallCfg)
	for s := 0; s < sets; s++ {
		for k := 0; k < ways; k++ {
			base.Write(line(s, k), []byte("boot"))
		}
	}
	base.FreezeShared()
	c := base.Clone(base.clock, base.meter, base.bus)
	slots := len(c.bufs)
	for s := 0; s < sets/2; s++ {
		c.Write(line(s, 0), []byte("own!")) // a hit on a shared line: own
	}
	for s := sets / 2; s < sets; s++ {
		c.Read(line(s, ways), make([]byte, 4)) // a miss in a full set: refill
	}
	if c.stats.Evictions != sets/2 {
		t.Fatalf("%d evictions, want %d", c.stats.Evictions, sets/2)
	}
	if len(c.bufs) != slots {
		t.Fatalf("bufs grew from %d to %d slots copying out shared lines", slots, len(c.bufs))
	}
	got := make([]byte, 4)
	for s := 0; s < sets; s++ {
		for k := 0; k < ways; k++ {
			if !base.Snoop(line(s, k), got) || string(got) != "boot" {
				t.Fatalf("base line (%d, %d) reads %q after the clone copied it out", s, k, got)
			}
		}
	}
}
