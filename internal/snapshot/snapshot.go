// Package snapshot provides deterministic checkpoint/fork for simulated
// worlds: capture the complete state of a booted platform once, then stamp
// out independent, byte-identical copies in O(touched metadata) instead of
// re-running the boot sequence.
//
// The heavy lifting lives in the layers being captured — every component
// from mem.Store (copy-on-write page sharing) up through soc.SoC.Fork,
// kernel.Kernel.Clone, and core.Sentry.Clone knows how to clone itself with
// its deterministic streams (clock, energy meter, RNG position) intact.
// This package contributes the orchestration contract:
//
//   - Capture parks a fork of the world as an immutable snapshot. The
//     original world stays live and mutable; the parked copy is never
//     touched again.
//   - Snapshot.Fork clones the parked copy. Because the parked world's
//     memory stores are sealed (frozen base layer, no private pages),
//     forking is a pure read of the snapshot and is safe from multiple
//     goroutines — the parallel bench harness forks one post-boot snapshot
//     per platform concurrently.
//
// Soundness contract, enforced by the property tests in this package (store
// level) and in internal/check/fork_test.go (full worlds): a
// forked world must replay any operation sequence byte-identically to a
// world that reached the capture point by cold boot, and mutations applied
// to one fork must never become visible to the parent, the snapshot, or
// sibling forks.
package snapshot

import (
	"sync"
	"sync/atomic"
)

// Forkable is a world that can produce an independent deep copy of itself.
// Fork must leave the receiver replayable (sealing shared memory is allowed;
// observable state must not change).
type Forkable[W any] interface {
	Fork() W
}

// Snapshot is an immutable checkpoint of a world. Create with Capture; stamp
// out copies with Fork; a sole remaining consumer may take the parked world
// itself with HandOff instead of paying for a final fork.
type Snapshot[W Forkable[W]] struct {
	mu     sync.Mutex
	parked W
	spent  bool
	forks  atomic.Uint64
}

// Capture checkpoints w. The world keeps running afterwards — its memory
// pages are sealed into a shared copy-on-write base, and an immutable parked
// clone is retained as the snapshot.
func Capture[W Forkable[W]](w W) *Snapshot[W] {
	return &Snapshot[W]{parked: w.Fork()}
}

// Adopt parks w itself as the snapshot, without forking first. It is the
// O(1) hand-off the fleet's eviction path uses: the owner stops driving the
// world and surrenders it to the snapshot in place, paying the fork cost
// only if the device is ever re-hydrated. The caller must never touch w
// again — the snapshot now owns it (Capture, by contrast, leaves the
// original live).
func Adopt[W Forkable[W]](w W) *Snapshot[W] {
	return &Snapshot[W]{parked: w}
}

// Deflater is a world that can re-encode its heavyweight state as a delta
// against a frozen base world of type B, retaining only what diverged.
// Deflate returns an estimate of the bytes still held privately; after it,
// the world must never execute again — Fork (which reconstructs dense
// state) and release are the only legal operations.
type Deflater[W, B any] interface {
	Forkable[W]
	Deflate(base B) int64
}

// CaptureDelta parks w as a delta snapshot encoded against base: w is
// deflated in place — merged copy-on-write page maps give way to the base's
// shared maps plus the diverged pages, dense cache arrays to a sparse line
// delta — and then adopted, so a parked device costs O(divergence from
// base) instead of O(everything it ever touched). The caller must never
// touch w again (as with Adopt), and base must be frozen for concurrent
// reads (e.g. Device.FreezeBase). Hydrate with Fork: the deflated world's
// own Fork reconstructs a dense, fully independent copy from base+delta,
// and the snapshot stays parked for further hydrations. The returned byte
// count is the delta's estimated resting cost, for parked-bytes accounting.
func CaptureDelta[W Deflater[W, B], B any](w W, base B) (*Snapshot[W], int64) {
	n := w.Deflate(base)
	return Adopt(w), n
}

// Fork returns an independent world continuing from the captured state.
// Safe for concurrent use: the first fork of the parked copy seals its
// (already base-only) stores, and the mutex serialises that with any
// concurrent fork; every fork after that is a pure read. Forking a snapshot
// whose world was taken by HandOff is a programming error and panics.
func (s *Snapshot[W]) Fork() W {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spent {
		panic("snapshot: Fork of a handed-off snapshot")
	}
	s.forks.Add(1)
	return s.parked.Fork()
}

// HandOff surrenders the parked world itself to the caller — the inverse of
// Adopt, and O(1) where Fork pays for a clone. It is the last-consumer fast
// path of ref-counted snapshot trees: a node about to serve its final child
// has no future readers, so the child may drive the parked world directly.
// After a successful HandOff the snapshot is spent: further HandOff calls
// return ok == false and Fork panics.
func (s *Snapshot[W]) HandOff() (w W, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spent {
		var zero W
		return zero, false
	}
	s.spent = true
	return s.parked, true
}

// Forks reports how many worlds have been forked from this snapshot — the
// "snapshot hit" half of the explorer's hit-vs-replay coverage metric.
func (s *Snapshot[W]) Forks() uint64 { return s.forks.Load() }
