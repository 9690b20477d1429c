// Package obs is the simulator's observability substrate: a bounded
// ring-buffer event trace plus a metrics registry, both zero-dependency
// and safe (cheap) to leave disabled.
//
// The design goal is that a *nil* Tracer, Counter, Gauge or Histogram is a
// valid, near-zero-cost no-op, so hot paths in the hardware simulation can
// unconditionally call Emit/Add without branching on an "enabled" flag at
// every call site. All methods are nil-receiver-safe.
//
// Events are fixed-size records keyed to the simulated clock, not wall
// time; together with the deterministic RNG this keeps traces reproducible
// run-to-run for a given seed.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a trace event. Kinds are stable small integers so a
// bitmask can filter them; String() gives the wire name used by sinks.
type Kind uint8

// Event kinds. Keep in sync with kindNames.
const (
	KindBusTxn      Kind = iota // a bus read/write crossing the SoC boundary
	KindCacheLock               // an L2 way entered lockdown
	KindCacheUnlock             // an L2 way left lockdown
	KindPageSeal                // a DRAM page was encrypted in place
	KindPageUnseal              // a DRAM page was decrypted in place
	KindKeyDerive               // a key was generated or derived
	KindKeyZeroize              // key material was destroyed
	KindIRQMask                 // interrupts masked (Arg=1) or unmasked (Arg=0)
	KindDMAXfer                 // a DMA transfer (Arg=1 means denied)
	KindAttackProbe             // an attack probe attached or fired
	KindStateChange             // a kernel lock-state transition
	kindCount
)

var kindNames = [kindCount]string{
	"bus-txn", "cache-lock", "cache-unlock", "page-seal", "page-unseal",
	"key-derive", "key-zeroize", "irq-mask", "dma-xfer", "attack-probe",
	"state-change",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString inverts Kind.String. Returns kindCount, false for unknown
// names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return kindCount, false
}

// NumKinds is the number of defined event kinds; valid kinds are
// Kind(0) … Kind(NumKinds-1).
const NumKinds = int(kindCount)

// AllKinds is the filter mask admitting every event kind.
const AllKinds uint64 = 1<<uint(kindCount) - 1

// Mask returns the filter bit for k, for use with Tracer.SetKinds.
func Mask(kinds ...Kind) uint64 {
	var m uint64
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// Event is one trace record. Field meaning varies slightly by kind:
//
//	Addr  — physical address of the page/transaction/way-alias involved
//	Size  — bytes moved (bus, DMA, seal/unseal) or way index (cache lock)
//	Arg   — kind-specific scalar: cycles spent (seal/unseal), mask state
//	        (irq), denied flag (dma), variant (attack-probe)
//	Label — short identifier: initiator name, key name, state names
//
// Events are value types; sinks receive copies and may retain them.
type Event struct {
	Seq   uint64 `json:"seq"`
	Cycle uint64 `json:"cycle"`
	Kind  Kind   `json:"-"`
	Addr  uint64 `json:"addr,omitempty"`
	Size  uint64 `json:"size,omitempty"`
	Arg   uint64 `json:"arg,omitempty"`
	Label string `json:"label,omitempty"`
}

// eventJSON is Event's wire form: Kind as its string name.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Addr  uint64 `json:"addr,omitempty"`
	Size  uint64 `json:"size,omitempty"`
	Arg   uint64 `json:"arg,omitempty"`
	Label string `json:"label,omitempty"`
}

// MarshalJSON writes the event with its kind name, not the raw enum value,
// so JSONL traces stay readable and stable across kind renumbering.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{e.Seq, e.Cycle, e.Kind.String(), e.Addr, e.Size, e.Arg, e.Label})
}

// UnmarshalJSON inverts MarshalJSON.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w eventJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, ok := KindFromString(w.Kind)
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", w.Kind)
	}
	*e = Event{w.Seq, w.Cycle, k, w.Addr, w.Size, w.Arg, w.Label}
	return nil
}

// Sink receives every event a Tracer admits, in emit order per goroutine.
// Consume must be safe for concurrent use; the tracer does not serialise
// calls across emitters.
type Sink interface {
	Consume(Event)
}

// Tracer is a bounded, concurrency-safe event trace. The last Cap() admitted
// events are retained in a power-of-two ring; older events are overwritten
// (and counted as dropped). Admission is gated by an atomic kind mask, so
// filtering to a few kinds costs one load + branch on the fast path, and a
// nil *Tracer makes Emit a single nil check.
//
// "Lock-free-ish": the sequence counter and filter mask are atomics; only
// the individual ring slot is briefly locked, so emitters contend only when
// they collide on the same slot (ring-size apart in sequence).
//
// Single-owner semantics: although Emit is memory-safe under concurrency,
// a tracer wired into a simulated platform inherits that platform's
// single-owner contract — its Cycle stamps come from one unsynchronised
// Clock, so interleaving two devices' emissions produces a trace that is
// garbage even though no data race fired. Callers that host devices on
// dedicated goroutines (internal/fleet) call BindOwner to enforce the
// contract: in debug and race builds any Emit from a non-owner goroutine
// panics with a diagnostic instead of silently corrupting the stream.
type Tracer struct {
	seq   atomic.Uint64 // next sequence number; also total admitted
	mask  atomic.Uint64 // kind filter bitmask
	sinks atomic.Value  // []Sink, copy-on-write under sinkMu

	sinkMu sync.Mutex // serialises AddSink; Emit reads lock-free
	slots  []slot     // len is a power of two

	own owner // optional single-owner guard (debug/race builds only)
}

type slot struct {
	mu    sync.Mutex
	ev    Event
	valid bool
}

// DefaultRingSize is the trace capacity used by NewTracer.
const DefaultRingSize = 1 << 14

// NewTracer returns a tracer retaining the last `size` events (rounded up
// to a power of two, min 8). All kinds are admitted until SetKinds narrows
// the filter.
func NewTracer(size int) *Tracer {
	if size < 8 {
		size = 8
	}
	n := 8
	for n < size {
		n <<= 1
	}
	t := &Tracer{slots: make([]slot, n)}
	t.mask.Store(AllKinds)
	t.sinks.Store([]Sink(nil))
	return t
}

// Cap returns the ring capacity. Zero for a nil tracer.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// SetKinds restricts admission to the kinds present in mask (build it with
// Mask(...) or use AllKinds). Events of filtered-out kinds cost one atomic
// load at the emit site and are never stored or fanned out.
func (t *Tracer) SetKinds(mask uint64) {
	if t == nil {
		return
	}
	t.mask.Store(mask & AllKinds)
}

// Kinds returns the current admission mask.
func (t *Tracer) Kinds() uint64 {
	if t == nil {
		return 0
	}
	return t.mask.Load()
}

// AddSink registers s to receive every admitted event. Sinks added
// mid-trace see only subsequent events.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.sinkMu.Lock()
	old := t.sinks.Load().([]Sink)
	next := make([]Sink, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	t.sinks.Store(next)
	t.sinkMu.Unlock()
}

// BindOwner binds the tracer to the calling goroutine: in debug and race
// builds, any later Emit from a different goroutine panics. Call it again
// after a deliberate ownership hand-off (an actor restarting its device, a
// harness reclaiming a quiescent one); UnbindOwner removes the guard. A
// no-op in release builds and on a nil tracer.
func (t *Tracer) BindOwner() {
	if t != nil {
		t.own.bind()
	}
}

// UnbindOwner removes the owner binding, restoring unguarded concurrent use.
func (t *Tracer) UnbindOwner() {
	if t != nil {
		t.own.unbind()
	}
}

// Emit records an event. Safe on a nil tracer (no-op) and safe for
// concurrent use. The Seq field of ev is assigned by the tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.own.check("Tracer")
	if t.mask.Load()&(1<<uint(ev.Kind)) == 0 {
		return
	}
	ev.Seq = t.seq.Add(1) - 1
	s := &t.slots[ev.Seq&uint64(len(t.slots)-1)]
	s.mu.Lock()
	s.ev = ev
	s.valid = true
	s.mu.Unlock()
	if sinks := t.sinks.Load().([]Sink); len(sinks) > 0 {
		for _, sk := range sinks {
			sk.Consume(ev)
		}
	}
}

// Emitted returns the total number of admitted events since creation (or
// the last Reset), including ones the ring has since overwritten.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Dropped returns how many admitted events have been overwritten in the
// ring (they still reached sinks).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n := t.seq.Load()
	if c := uint64(len(t.slots)); n > c {
		return n - c
	}
	return 0
}

// Snapshot returns the retained events in ascending Seq order. The result
// is a copy; mutating it does not affect the ring.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.valid {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset clears the ring and sequence counter. Sinks and the kind filter are
// kept.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		s.valid = false
		s.ev = Event{}
		s.mu.Unlock()
	}
	t.seq.Store(0)
}

// MemorySink retains every consumed event in order, optionally filtered to
// a kind mask. It is what tests and trace-derived reports read from: unlike
// the tracer's ring it never drops, so event sums are exact.
type MemorySink struct {
	mu     sync.Mutex
	mask   uint64
	events []Event
}

// NewMemorySink returns a sink retaining events whose kind is in mask
// (AllKinds for everything).
func NewMemorySink(mask uint64) *MemorySink {
	return &MemorySink{mask: mask & AllKinds}
}

// Consume implements Sink.
func (m *MemorySink) Consume(ev Event) {
	if m.mask&(1<<uint(ev.Kind)) == 0 {
		return
	}
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Events returns a copy of the retained events in consumption order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Len returns the number of retained events.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Reset discards retained events.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.events = m.events[:0]
	m.mu.Unlock()
}

// SumSize returns the sum of Event.Size over retained events of kind k —
// the primitive trace-derived reports are built from (e.g. bytes sealed).
func (m *MemorySink) SumSize(k Kind) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for i := range m.events {
		if m.events[i].Kind == k {
			n += m.events[i].Size
		}
	}
	return n
}

// Count returns how many retained events have kind k.
func (m *MemorySink) Count(k Kind) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.events {
		if m.events[i].Kind == k {
			n++
		}
	}
	return n
}

// JSONLSink streams each consumed event as one JSON object per line —
// the `-trace out.jsonl` format. Writes are serialised internally.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Consume implements Sink. The first write error is retained (see Err) and
// subsequent events are dropped.
func (j *JSONLSink) Consume(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		j.err = err
		return
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// Err returns the first write/encode error, if any.
func (j *JSONLSink) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJSONL parses a JSONL trace produced by JSONLSink back into events.
func ReadJSONL(data []byte) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, ev)
	}
}
