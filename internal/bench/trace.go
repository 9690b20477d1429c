package bench

import (
	"fmt"
	"sync"

	"sentry/internal/apps"
	"sentry/internal/bus"
	"sentry/internal/core"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/soc"
)

// Trace support. Experiments boot their SoCs through the boot helpers
// below, so a single SetTracer call (sentrybench's -trace flag) makes
// every experiment's bus transactions, seals, faults, and state changes
// stream into one tracer. Two experiments additionally re-derive existing
// report columns purely from trace events, cross-checked against the
// metric counters the reports normally use.

func init() {
	register(Experiment{ID: "trace-bus", Title: "Bus traffic re-derived from the event trace", Run: runTraceBus})
	register(Experiment{ID: "trace-crypto", Title: "Encrypt-on-lock volume and latency re-derived from the event trace", Run: runTraceCrypto})
}

// pkgTracer receives events from every SoC booted by an experiment after
// SetTracer. It is installed once before any experiment runs and only read
// afterwards; obs.Tracer itself is safe for concurrent emitters, but with
// RunAll parallelism >1 events from different experiments interleave in the
// stream (sentrybench therefore forces -j 1 when -trace is set).
var pkgTracer *obs.Tracer

// SetTracer installs (or with nil removes) the tracer fed by every
// experiment run after the call. Call it before running experiments, never
// concurrently with them.
func SetTracer(t *obs.Tracer) { pkgTracer = t }

// boot wires the package tracer into a freshly built SoC. Each SoC gets a
// private registry so concurrent experiments cannot mix their counters.
func boot(s *soc.SoC) *soc.SoC {
	if pkgTracer != nil {
		s.Instrument(pkgTracer, obs.NewRegistry())
	}
	return s
}

// bootSnaps holds one frozen post-boot SoC per (platform, seed). Every
// experiment that needs that platform forks it in O(touched metadata)
// instead of re-running the boot sequence; a frozen SoC is never written by
// a fork, so concurrent experiments under RunAll parallelism fork the same
// one without a lock. Tracing runs bypass the cache: a forked SoC replays
// no boot, so its event stream would differ from a cold boot's even though
// all observable state matches.
var bootSnaps sync.Map

type bootKey struct {
	platform string
	seed     int64
}

func bootSnapshot(platform string, seed int64, build func(int64) *soc.SoC) *soc.SoC {
	if pkgTracer != nil {
		return boot(build(seed))
	}
	k := bootKey{platform, seed}
	v, ok := bootSnaps.Load(k)
	if !ok {
		// Two experiments may race to build the first checkpoint;
		// LoadOrStore keeps one and the loser's boot work is discarded.
		s := build(seed)
		s.FreezeBase()
		v, _ = bootSnaps.LoadOrStore(k, s)
	}
	return v.(*soc.SoC).Fork()
}

func bootTegra3(seed int64) *soc.SoC { return bootSnapshot("tegra3", seed, soc.Tegra3) }
func bootNexus4(seed int64) *soc.SoC { return bootSnapshot("nexus4", seed, soc.Nexus4) }

// bootProfile cold-boots: callers hand-tune Profile fields, so there is no
// sound cache key short of the whole struct.
func bootProfile(p soc.Profile, seed int64) *soc.SoC { return boot(soc.New(p, seed)) }

func matchCell(a, b uint64) string {
	if a == b {
		return "match"
	}
	return fmt.Sprintf("MISMATCH (%d != %d)", a, b)
}

// runTraceBus streams a fixed CPU workload over DRAM with a bus-transaction
// sink attached and rebuilds the bus counters from the captured events.
// The two derivations count the same physical transfers through entirely
// separate paths (metrics registry vs trace ring), so every row must match.
func runTraceBus(seed int64) (*Report, error) {
	tr := obs.NewTracer(256) // deliberately tiny: sinks see events the ring drops
	sink := obs.NewMemorySink(obs.Mask(obs.KindBusTxn))
	tr.AddSink(sink)
	reg := obs.NewRegistry()
	s := soc.Tegra3(seed)
	s.Instrument(tr, reg)

	// The workload: stream 2 MB of uncached page reads and writes plus a
	// cached pass, so line fills, write-backs, and uncached singles all
	// appear on the bus.
	page := make([]byte, mem.PageSize)
	s.RNG.Read(page)
	for i := 0; i < 512; i++ {
		addr := soc.DRAMBase + mem.PhysAddr(0x100000+i*mem.PageSize)
		s.CPU.WritePhys(addr, page)
		s.CPU.ReadPhys(addr, page)
	}
	s.L2.CleanWays(s.L2.AllWaysMask())

	var evReads, evWrites, evRdBytes, evWrBytes uint64
	for _, ev := range sink.Events() {
		if bus.Op(ev.Arg) == bus.Read {
			evReads++
			evRdBytes += ev.Size
		} else {
			evWrites++
			evWrBytes += ev.Size
		}
	}

	r := &Report{ID: "trace-bus", Title: "Bus traffic: metric counters vs trace-event derivation",
		Header: []string{"Quantity", "From counters", "From trace", "Agreement"}}
	rows := []struct {
		label   string
		counter string
		trace   uint64
	}{
		{"Read transactions", "bus.reads", evReads},
		{"Write transactions", "bus.writes", evWrites},
		{"Bytes read", "bus.bytes_read", evRdBytes},
		{"Bytes written", "bus.bytes_wrote", evWrBytes},
	}
	for _, row := range rows {
		c := reg.CounterValue(row.counter)
		r.Add(row.label, c, row.trace, matchCell(c, row.trace))
	}
	r.Note("trace column is summed from %d KindBusTxn events (ring capacity %d, %d dropped from the ring; sinks never drop)",
		sink.Len(), tr.Cap(), tr.Dropped())
	return r, nil
}

// runTraceCrypto locks a device per app and rebuilds fig4's
// "MBytes encrypted" column from KindPageSeal events instead of the
// Stats counters, plus the per-page seal latency from the events' cycle
// spans. Counter and trace derivations must agree exactly.
func runTraceCrypto(seed int64) (*Report, error) {
	r := &Report{ID: "trace-crypto", Title: "Encrypt-on-lock: Stats counters vs trace-event derivation",
		Header: []string{"App", "MB (counters)", "MB (trace)", "Pages", "Mean seal (µs)", "Agreement"}}
	for _, prof := range apps.Profiles() {
		tr := obs.NewTracer(obs.DefaultRingSize)
		sink := obs.NewMemorySink(obs.Mask(obs.KindPageSeal))
		tr.AddSink(sink)
		s := soc.Nexus4(seed)
		s.Instrument(tr, obs.NewRegistry())
		k := kernel.New(s, benchPIN)
		sn, err := core.New(k, core.Config{})
		if err != nil {
			return nil, err
		}
		if _, err := apps.Launch(k, prof, true); err != nil {
			return nil, err
		}
		k.Lock()

		ctrBytes := sn.Stats().LockEncryptedBytes
		var evBytes, evCycles uint64
		var pages int
		for _, ev := range sink.Events() {
			if ev.Label != core.SealLock {
				continue
			}
			evBytes += ev.Size
			evCycles += ev.Arg
			pages++
		}
		meanUS := 0.0
		if pages > 0 {
			meanUS = s.Clock.SecondsFor(evCycles/uint64(pages)) * 1e6
		}
		r.Add(prof.Name, float64(ctrBytes)/(1<<20), float64(evBytes)/(1<<20),
			pages, fmt.Sprintf("%.1f", meanUS), matchCell(ctrBytes, evBytes))
	}
	r.Note("MB (counters) is exactly fig4's MBytes-encrypted column; MB (trace) sums KindPageSeal events labelled %q", core.SealLock)
	return r, nil
}
