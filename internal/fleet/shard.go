package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// slotState is the residency lifecycle of one logical device.
type slotState uint8

const (
	// slotParked: no actor. The device lives in sl.parked (nil if it has
	// never booted); its next op hydrates it by fork.
	slotParked slotState = iota
	// slotResident: a live actor owns the device world and serves ops.
	slotResident
	// slotParking: the actor has been asked to park and is draining its
	// mailbox; sl.wait closes when the hand-off to sl.parked completes.
	slotParking
)

// slot is the persistent identity of one logical device — everything that
// must survive eviction. The actor (and the device world it owns) comes and
// goes; the ledger, sequence counter, op-ID allocator, restart accounting,
// and circuit breaker stay here, which is what makes a park/hydrate cycle
// invisible in the soak report.
//
// Lifecycle fields (state, act, wait, inflight, LRU links) are guarded by
// the owning shard's mutex. seq and parked are owned by the actor goroutine
// while resident; ownership hands off through the shard mutex at
// startActor/parkDone, so no separate lock is needed.
type slot struct {
	id DeviceID

	state    slotState
	act      *actor
	wait     chan struct{} // non-nil while parking
	inflight int           // attempts pinning this slot resident
	lruPrev  *slot
	lruNext  *slot

	parked *device
	// parkedBytes is the estimated resting cost of sl.parked as of the
	// last park; the delta against it keeps the fleet's parked-bytes gauge
	// current. Owned by the parking actor (hand-off through the shard
	// mutex), like parked itself.
	parkedBytes int64

	nextOp      atomic.Uint64
	quarantined atomic.Bool
	stalled     atomic.Bool
	boots       atomic.Int64 // real boots: initial, restart, drill, recovery
	restarts    atomic.Int64 // fault-caused restarts (charged to the budget)
	brk         *Breaker

	seq uint64 // ledger sequence, contiguous per device across reboots

	mu         sync.Mutex // guards the slices for cross-goroutine readers
	ledger     []LedgerEntry
	causes     []string
	violations []string
}

// shard owns a partition of the device ID space: its slot table, the LRU of
// resident slots, and the residency cap. All shard state is behind one
// mutex; the critical sections are pointer juggling only (boots, forks, and
// op execution all happen outside it, on actor goroutines).
type shard struct {
	f   *Fleet
	idx int
	cap int // max resident actors; 0 = unbounded

	mu       sync.Mutex
	slots    map[DeviceID]*slot
	resident int
	lruHead  *slot // most recently used resident slot
	lruTail  *slot // least recently used resident slot
	waiters  int
	notify   chan struct{} // closed+replaced to wake residency waiters
}

func newShard(f *Fleet, idx, cap int) *shard {
	return &shard{
		f: f, idx: idx, cap: cap,
		slots:  make(map[DeviceID]*slot),
		notify: make(chan struct{}),
	}
}

// peekSlot returns the slot for id without instantiating it.
func (sh *shard) peekSlot(id DeviceID) *slot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.slots[id]
}

// acquire pins sl resident and returns its actor; the caller must release
// after the attempt completes. It hydrates a parked slot (evicting the
// least-recently-used idle resident when the shard is at its cap), waits
// out an in-progress park, and blocks — interruptibly — when every resident
// is mid-request and nothing can be evicted yet. Residency pressure never
// fails a request by itself; only the caller's context can, so a capped
// fleet serializes instead of erroring (admission tokens at the front door
// are the load-shedding layer).
func (sh *shard) acquire(ctx context.Context, sl *slot) (*actor, error) {
	sh.mu.Lock()
	for {
		if sh.f.stopped.Load() {
			sh.mu.Unlock()
			return nil, fmt.Errorf("fleet: device %d: %w", sl.id, ErrShutdown)
		}
		if sh.slots[sl.id] != sl {
			// A live reshard re-homed the slot while we waited; the caller
			// re-resolves and retries against the new owner.
			sh.mu.Unlock()
			return nil, errSlotMoved
		}
		switch sl.state {
		case slotResident:
			sl.inflight++
			sh.lruMoveFront(sl)
			a := sl.act
			sh.mu.Unlock()
			return a, nil

		case slotParking:
			w := sl.wait
			sh.mu.Unlock()
			select {
			case <-w:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			sh.mu.Lock()

		case slotParked:
			// A quarantined device is never re-instantiated: its terminal
			// state (and corpse, if any) is already recorded on the slot.
			if sl.quarantined.Load() {
				sh.mu.Unlock()
				return nil, fmt.Errorf("fleet: device %d: %w", sl.id, ErrQuarantined)
			}
			if sh.cap > 0 && sh.resident >= sh.cap {
				victim := sh.evictable()
				if victim == nil {
					// Every resident is mid-request; wait for one to go
					// idle (release broadcasts) instead of failing.
					sh.waiters++
					w := sh.notify
					sh.mu.Unlock()
					select {
					case <-w:
						sh.mu.Lock()
						sh.waiters--
					case <-ctx.Done():
						sh.mu.Lock()
						sh.waiters--
						sh.mu.Unlock()
						return nil, ctx.Err()
					}
					continue
				}
				sh.startPark(victim)
				continue
			}
			sh.startActor(sl)
		}
	}
}

// release unpins one attempt; the last unpin wakes residency waiters, for
// whom the slot just became evictable.
func (sh *shard) release(sl *slot) {
	sh.mu.Lock()
	sl.inflight--
	if sl.inflight == 0 && sh.waiters > 0 {
		close(sh.notify)
		sh.notify = make(chan struct{})
	}
	sh.mu.Unlock()
}

// wakeWaiters unblocks every goroutine parked in acquire (used by Stop).
func (sh *shard) wakeWaiters() {
	sh.mu.Lock()
	if sh.waiters > 0 {
		close(sh.notify)
		sh.notify = make(chan struct{})
	}
	sh.mu.Unlock()
}

// startActor transitions a parked slot to resident. Caller holds sh.mu.
func (sh *shard) startActor(sl *slot) {
	sl.state = slotResident
	sl.act = newActor(sh.f, sh, sl)
	sh.lruInsertFront(sl)
	sh.resident++
	sh.f.gResident.Add(1)
	sh.f.actorWG.Add(1)
	go sl.act.run()
}

// startPark asks a resident slot's actor to park. The seat frees
// immediately (the drain happens on the actor goroutine); acquirers of this
// slot wait on sl.wait until the hand-off completes. Caller holds sh.mu.
func (sh *shard) startPark(sl *slot) {
	sl.state = slotParking
	sl.wait = make(chan struct{})
	sh.lruRemove(sl)
	sh.resident--
	sh.f.gResident.Add(-1)
	sl.act.parkReq.Store(true)
	sl.act.wake()
}

// parkDone completes the park hand-off: called by the actor after it has
// adopted its world into sl.parked (or discarded a dead one) and is about
// to exit.
func (sh *shard) parkDone(sl *slot) {
	sh.mu.Lock()
	sl.state = slotParked
	sl.act = nil
	sl.stalled.Store(false)
	close(sl.wait)
	sl.wait = nil
	sh.mu.Unlock()
	sh.f.ctrParks.Inc()
}

// evictable returns the least-recently-used resident slot with no attempt
// in flight, nil if every resident is pinned. Caller holds sh.mu.
func (sh *shard) evictable() *slot {
	for sl := sh.lruTail; sl != nil; sl = sl.lruPrev {
		if sl.inflight == 0 {
			return sl
		}
	}
	return nil
}

// lruInsertFront links sl as most recently used. Caller holds sh.mu.
func (sh *shard) lruInsertFront(sl *slot) {
	sl.lruPrev = nil
	sl.lruNext = sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.lruPrev = sl
	}
	sh.lruHead = sl
	if sh.lruTail == nil {
		sh.lruTail = sl
	}
}

// lruRemove unlinks sl. Caller holds sh.mu.
func (sh *shard) lruRemove(sl *slot) {
	if sl.lruPrev != nil {
		sl.lruPrev.lruNext = sl.lruNext
	} else {
		sh.lruHead = sl.lruNext
	}
	if sl.lruNext != nil {
		sl.lruNext.lruPrev = sl.lruPrev
	} else {
		sh.lruTail = sl.lruPrev
	}
	sl.lruPrev, sl.lruNext = nil, nil
}

// lruMoveFront marks sl most recently used. Caller holds sh.mu.
func (sh *shard) lruMoveFront(sl *slot) {
	if sh.lruHead == sl {
		return
	}
	sh.lruRemove(sl)
	sh.lruInsertFront(sl)
}
