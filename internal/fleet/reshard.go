package fleet

import "fmt"

// Live resharding. The consistent-hash ring is append-only: growing from m
// to n shards keeps every existing vnode and adds vnodes for shards m..n-1,
// so ownership changes only for keys whose nearest vnode is now one of the
// new shards — movers always go old→new, never old→old. Reshard exploits
// that stability: it publishes the grown topology first (new requests route
// to the new owners and pull slots over on demand), then proactively drains
// the ceded keyspace, then republishes with the previous topology unlinked.
//
// A slot — the persistent identity of a device: ledger, sequence counter,
// breaker, restart accounting, parked snapshot — lives in exactly one shard
// table at every instant (migrateOne moves it under both shard locks), and
// only parked slots move: a resident mover is force-parked first, draining
// its in-flight request. Since a park/hydrate cycle is byte-invisible by the
// snapshot soundness contract, a reshard mid-soak produces reports
// byte-identical to a run without it.

// topology is the fleet's routing state: the consistent-hash ring and the
// shard table it indexes. While a reshard is draining, prev links the
// topology being replaced so lookups that miss at the new owner know where
// to pull the slot from; the final republish clears it.
type topology struct {
	ring   *ring
	shards []*shard
	prev   *topology
}

// resolve maps id to its owning shard and slot under the current topology,
// creating the slot on first touch. During a live reshard it routes to the
// new owner and pulls a mover's slot across from the previous owner instead
// of creating a duplicate identity.
func (f *Fleet) resolve(id DeviceID) (*shard, *slot) {
	for {
		top := f.top.Load()
		sh := top.shards[top.ring.owner(id)]
		sh.mu.Lock()
		if sl := sh.slots[id]; sl != nil {
			sh.mu.Unlock()
			return sh, sl
		}
		sh.mu.Unlock()
		if top.prev != nil {
			if old := top.prev.shards[top.prev.ring.owner(id)]; old != sh {
				if sl := f.migrateOne(old, sh, id); sl != nil {
					return sh, sl
				}
				// Nothing to pull: either never touched (create below) or
				// another migration won the race (the re-check finds it).
			}
		}
		sh.mu.Lock()
		if sl := sh.slots[id]; sl != nil {
			sh.mu.Unlock()
			return sh, sl
		}
		if f.top.Load() != top {
			// The topology moved while we held a possibly stale owner;
			// re-resolve so a reshard in flight never sees two slots for
			// one device.
			sh.mu.Unlock()
			continue
		}
		sl := &slot{id: id, brk: NewBreaker(f.opt.Breaker, f.clock)}
		sh.slots[id] = sl
		sh.mu.Unlock()
		return sh, sl
	}
}

// migrateOne moves device id's slot from its previous owner old to its new
// owner sh, force-parking a resident mover first. Movers always go from an
// original shard to a newly added one, so the nested old-then-new lock
// order is globally consistent. Returns the slot once it lives in sh, nil
// when old holds no slot for id (untouched device, or already migrated) or
// the fleet stopped mid-wait.
func (f *Fleet) migrateOne(old, sh *shard, id DeviceID) *slot {
	for {
		if f.stopped.Load() {
			return nil
		}
		old.mu.Lock()
		sl := old.slots[id]
		if sl == nil {
			old.mu.Unlock()
			return nil
		}
		switch sl.state {
		case slotParked:
			sh.mu.Lock()
			delete(old.slots, id)
			sh.slots[id] = sl
			sh.mu.Unlock()
			old.mu.Unlock()
			return sl

		case slotParking:
			w := sl.wait
			old.mu.Unlock()
			select {
			case <-w:
			case <-f.stop:
				return nil
			}

		case slotResident:
			if sl.inflight == 0 {
				// Cede the keyspace: park the idle resident mover; its
				// actor completes the hand-off and we retry.
				old.startPark(sl)
				w := sl.wait
				old.mu.Unlock()
				select {
				case <-w:
				case <-f.stop:
					return nil
				}
			} else {
				// Mid-request: wait for the release broadcast.
				old.waiters++
				w := old.notify
				old.mu.Unlock()
				select {
				case <-w:
				case <-f.stop:
				}
				old.mu.Lock()
				old.waiters--
				old.mu.Unlock()
			}
		}
	}
}

// Reshard grows the shard count to n under live traffic. Only the ceded
// keyspace re-parks and re-homes (see the package comment above); devices
// whose owner is unchanged are untouched, and per-device results are
// byte-identical to a run without the reshard. Shrinking is not supported —
// ring stability (movers never land on an existing shard) is what bounds
// the disruption, and it only holds for growth.
func (f *Fleet) Reshard(n int) error {
	f.reshardMu.Lock()
	defer f.reshardMu.Unlock()
	if f.stopped.Load() {
		return ErrShutdown
	}
	cur := f.top.Load()
	if n <= len(cur.shards) {
		return fmt.Errorf("fleet: reshard to %d shards: have %d (grow-only)", n, len(cur.shards))
	}
	if f.opt.ResidentCap > 0 && n > f.opt.ResidentCap {
		return fmt.Errorf("fleet: reshard to %d shards exceeds resident cap %d", n, f.opt.ResidentCap)
	}
	shards := make([]*shard, n)
	copy(shards, cur.shards)
	for i := len(cur.shards); i < n; i++ {
		shards[i] = newShard(f, i, 0)
	}
	// Repartition the resident cap before any traffic routes to the new
	// shards; a shard over its shrunken cap evicts naturally on the next
	// acquire.
	for i, sh := range shards {
		sh.mu.Lock()
		sh.cap = shardCap(f.opt.ResidentCap, n, i)
		sh.mu.Unlock()
	}
	next := &topology{ring: newRing(n), shards: shards, prev: cur}
	f.top.Store(next)

	// Proactively drain the ceded keyspace. Lookups migrate lazily too;
	// this pass bounds the window in which prev must stay linked. New mover
	// slots cannot appear in the original shards after the publish (resolve
	// re-checks the topology before creating), so one scan is complete.
	for oi, old := range cur.shards {
		old.mu.Lock()
		var movers []DeviceID
		for id := range old.slots {
			if next.ring.owner(id) != oi {
				movers = append(movers, id)
			}
		}
		old.mu.Unlock()
		for _, id := range movers {
			f.migrateOne(old, shards[next.ring.owner(id)], id)
		}
	}
	f.top.Store(&topology{ring: next.ring, shards: shards})
	return nil
}
