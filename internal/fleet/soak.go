package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"sentry/internal/faults"
	"sentry/internal/sim"
)

// SoakConfig sizes one chaos-soak run. The run is deterministic for a fixed
// (Devices, OpsPerDevice, Seed, Faults): each device's op stream, fault
// schedule, retries, and ledger are pure functions of the seed — host
// timing moves wall-clock numbers only, never outcomes. Residency knobs
// (ResidentCap, Shards) change memory and scheduling, never the report:
// a park/hydrate cycle is byte-invisible.
type SoakConfig struct {
	Devices      int
	OpsPerDevice int
	Seed         int64
	Faults       string // fault profile name: none, benign, adversarial

	// SqueezeEvery forwards to Options.SqueezeEvery (default 4: every 4th
	// device boots iRAM-starved to exercise graceful degradation).
	SqueezeEvery int
	// OpTimeout is the per-request deadline (default 10s — far above any
	// simulated op, so deadlines never fire on a healthy run and the
	// report stays deterministic).
	OpTimeout time.Duration

	// ResidentCap and Shards forward to the fleet options (RunSoak only —
	// SoakOn drives whatever fleet sits behind its Client). Zero keeps the
	// defaults (unbounded residency, 8 shards).
	ResidentCap int
	Shards      int
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Devices <= 0 {
		c.Devices = 8
	}
	if c.OpsPerDevice <= 0 {
		c.OpsPerDevice = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Faults == "" {
		c.Faults = "benign"
	}
	if c.SqueezeEvery == 0 {
		c.SqueezeEvery = 4
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 10 * time.Second
	}
	return c
}

// DeviceSoak is one device's slice of the soak report.
type DeviceSoak struct {
	ID           int    `json:"id"`
	Ops          int    `json:"ops"`
	OK           int    `json:"ok"`
	Failed       int    `json:"failed"`
	Boots        int64  `json:"boots"`
	Restarts     int64  `json:"restarts"`
	Quarantined  bool   `json:"quarantined"`
	LedgerLen    int    `json:"ledger_len"`
	LastSeq      uint64 `json:"last_seq"`
	LedgerDigest string `json:"ledger_digest"`
}

// SoakReport is the JSON soak report (sentrybench -fleet-soak emits it).
// The fleet-side counter block is filled by RunSoak (which owns the fleet);
// a SoakOn report over a remote Client carries only the client-visible
// fields — identically zero on both sides of a determinism diff.
type SoakReport struct {
	Devices      int    `json:"devices"`
	OpsPerDevice int    `json:"ops_per_device"`
	Seed         int64  `json:"seed"`
	Profile      string `json:"profile"`

	OpsAttempted     uint64 `json:"ops_attempted"`
	OpsOK            uint64 `json:"ops_ok"`
	OpsFailed        uint64 `json:"ops_failed"`
	Retries          uint64 `json:"retries"`
	Execs            uint64 `json:"execs"`
	Sheds            uint64 `json:"sheds"`
	Restarts         uint64 `json:"restarts"`
	Quarantines      uint64 `json:"quarantines"`
	RecoveryReboots  uint64 `json:"recovery_reboots"`
	RebootDrills     uint64 `json:"reboot_drills"`
	CryptoDowngrades uint64 `json:"crypto_downgrades"`
	BgDowngrades     uint64 `json:"bg_downgrades"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	Stalls           uint64 `json:"stalls"`

	// Amplification is executed requests per client op — the retry
	// amplification factor, hard-bounded by MaxAttempts.
	Amplification float64 `json:"amplification"`

	FailuresByClass map[string]uint64 `json:"failures_by_class"`
	PerDevice       []DeviceSoak      `json:"per_device"`

	// Violations are confidentiality-invariant violations found during the
	// run (post-mortems of fault-injected power cuts) and by the final
	// sweep. A correct Sentry under a benign profile yields none.
	Violations []string `json:"violations"`
	// Problems are failed soak assertions (ledger gaps/dups, untraceable
	// quarantines, unbounded amplification). Empty means the run passed.
	Problems []string `json:"problems"`
}

// Passed reports whether the soak met every assertion.
func (r *SoakReport) Passed() bool {
	return len(r.Problems) == 0 && len(r.Violations) == 0
}

type clientRec struct {
	opID  uint64
	code  OpCode
	ok    bool
	class string
}

// driveSoak runs the soak workload against any Client: Devices concurrent
// clients (one per device, serial per device) each submit OpsPerDevice
// seeded random ops and record what they observed.
func driveSoak(c Client, cfg SoakConfig) [][]clientRec {
	recs := make([][]clientRec, cfg.Devices)
	var wg sync.WaitGroup
	for id := 0; id < cfg.Devices; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := sim.NewRNG(int64(splitmix64(uint64(cfg.Seed)^uint64(id)<<24) >> 1))
			out := make([]clientRec, 0, cfg.OpsPerDevice)
			for i := 0; i < cfg.OpsPerDevice; i++ {
				op := genOp(rng)
				ctx, cancel := context.WithTimeout(context.Background(), cfg.OpTimeout)
				res, err := c.Do(ctx, DeviceID(id), op)
				cancel()
				out = append(out, clientRec{opID: res.OpID, code: op.Code, ok: err == nil, class: ErrorCode(err)})
			}
			recs[id] = out
		}(id)
	}
	wg.Wait()
	return recs
}

// clientReport builds the client-visible half of the soak report: per-op
// outcomes, failure classes, and the per-device ledger audit, all through
// the Client interface only.
func clientReport(c Client, cfg SoakConfig, recs [][]clientRec) *SoakReport {
	rep := &SoakReport{
		Devices:         cfg.Devices,
		OpsPerDevice:    cfg.OpsPerDevice,
		Seed:            cfg.Seed,
		Profile:         cfg.Faults,
		OpsAttempted:    uint64(cfg.Devices * cfg.OpsPerDevice),
		FailuresByClass: make(map[string]uint64),
	}
	for id := 0; id < cfg.Devices; id++ {
		ledger, err := c.Ledger(context.Background(), DeviceID(id))
		if err != nil {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("device %d: ledger fetch failed: %v", id, err))
		}
		ds := DeviceSoak{ID: id, Ops: len(recs[id]), LedgerLen: len(ledger)}
		for _, r := range recs[id] {
			if r.ok {
				ds.OK++
				rep.OpsOK++
			} else {
				ds.Failed++
				rep.OpsFailed++
				rep.FailuresByClass[r.class]++
			}
		}
		for _, e := range ledger {
			if e.Seq > ds.LastSeq {
				ds.LastSeq = e.Seq
			}
		}
		ds.LedgerDigest = digestLedger(ledger)
		rep.PerDevice = append(rep.PerDevice, ds)
		rep.Problems = append(rep.Problems, auditLedger(id, ledger, recs[id])...)
	}
	return rep
}

// SoakOn drives the soak workload through any Client — the in-process
// *Fleet or an HTTPClient against a remote sentryd — and returns the
// client-visible report. It does not stop the fleet and cannot run the
// confidentiality sweep or fleet-counter assertions; RunSoak layers those
// on for the in-process case. Two SoakOn runs against equal fleets (same
// seed, any residency configuration) produce byte-identical reports.
func SoakOn(c Client, cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	if _, ok := faults.ByName(cfg.Faults); !ok {
		return nil, fmt.Errorf("fleet: unknown fault profile %q", cfg.Faults)
	}
	recs := driveSoak(c, cfg)
	rep := clientReport(c, cfg, recs)
	sort.Strings(rep.Problems)
	return rep, nil
}

// RunSoak drives a full chaos soak in-process: it opens a fleet, runs the
// SoakOn workload against it, then stops the fleet, sweeps every device for
// confidentiality violations, and audits the fleet-side counters the Client
// interface cannot see (boots, quarantine causes, retry amplification).
func RunSoak(cfg SoakConfig) (*SoakReport, error) { return runSoak(cfg) }

// runSoak is RunSoak with extra options applied after the config's own;
// tests pass unexported hooks through it.
func runSoak(cfg SoakConfig, extra ...Option) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	prof, ok := faults.ByName(cfg.Faults)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown fault profile %q", cfg.Faults)
	}
	opts := []Option{
		WithSeed(cfg.Seed),
		WithFaults(prof),
		WithSqueezeEvery(cfg.SqueezeEvery),
		WithShards(nonZero(cfg.Shards, 8)),
		WithResidentCap(cfg.ResidentCap),
	}
	f := Open(cfg.Devices, append(opts, extra...)...)

	recs := driveSoak(f, cfg)
	f.Stop()
	violations := f.SweepConfidentiality()
	sort.Strings(violations)

	rep := clientReport(f, cfg, recs)
	rep.Retries = f.reg.CounterValue(MetricRetries)
	rep.Execs = f.reg.CounterValue(MetricExecs)
	rep.Sheds = f.reg.CounterValue(MetricSheds)
	rep.Restarts = f.reg.CounterValue(MetricRestarts)
	rep.Quarantines = f.reg.CounterValue(MetricQuarantines)
	rep.RecoveryReboots = f.reg.CounterValue(MetricRecoveryReboots)
	rep.RebootDrills = f.reg.CounterValue(MetricRebootDrills)
	rep.CryptoDowngrades = f.reg.CounterValue(MetricCryptoDowngrades)
	rep.BgDowngrades = f.reg.CounterValue(MetricBgDowngrades)
	rep.BreakerTrips = f.BreakerTrips()
	rep.Stalls = f.reg.CounterValue(MetricStalls)
	rep.Violations = violations
	if rep.OpsAttempted > 0 {
		rep.Amplification = float64(rep.Execs) / float64(rep.OpsAttempted)
	}
	if ok := f.reg.CounterValue(MetricOpsOK); ok != rep.OpsOK {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("fleet counter ops_ok=%d disagrees with client-observed %d", ok, rep.OpsOK))
	}

	for i := range rep.PerDevice {
		ds := &rep.PerDevice[i]
		h := f.DeviceHealth(DeviceID(ds.ID))
		ds.Boots = h.Boots
		ds.Restarts = h.Restarts
		ds.Quarantined = h.Quarantined
		if ds.Quarantined {
			rep.Problems = append(rep.Problems,
				auditQuarantine(ds.ID, int64(f.opt.RestartBudget), f.RestartCauses(DeviceID(ds.ID)))...)
		}
	}

	// Bounded retry amplification: the execution layer can never see more
	// than MaxAttempts tries per client op.
	if rep.Execs > rep.OpsAttempted*uint64(f.opt.MaxAttempts) {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("retry amplification unbounded: %d execs for %d ops (max attempts %d)",
				rep.Execs, rep.OpsAttempted, f.opt.MaxAttempts))
	}
	sort.Strings(rep.Problems)
	return rep, nil
}

func nonZero(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

// genOp draws one operation from the soak mix.
func genOp(rng *sim.RNG) Op {
	r := rng.Intn(100)
	arg := uint64(rng.Intn(1 << 16))
	switch {
	case r < 5:
		return Op{Code: OpPing, Arg: arg, Prio: PrioLow}
	case r < 20:
		return Op{Code: OpLock, Arg: arg, Prio: PrioHigh}
	case r < 40:
		return Op{Code: OpUnlock, Arg: arg, Prio: PrioHigh}
	case r < 43:
		return Op{Code: OpBadPIN, Arg: arg, Prio: PrioHigh}
	case r < 60:
		return Op{Code: OpTouch, Arg: arg, Prio: PrioNormal}
	case r < 67:
		return Op{Code: OpBgBegin, Arg: arg, Prio: PrioNormal}
	case r < 75:
		return Op{Code: OpBgTouch, Arg: arg, Prio: PrioNormal}
	case r < 80:
		return Op{Code: OpBgPinned, Arg: arg, Prio: PrioNormal}
	case r < 88:
		return Op{Code: OpDiskWrite, Arg: arg, Prio: PrioNormal}
	case r < 96:
		return Op{Code: OpDiskRead, Arg: arg, Prio: PrioNormal}
	default:
		return Op{Code: OpRebootDrill, Arg: arg, Prio: PrioNormal}
	}
}

// auditLedger checks one device's sequence ledger against the client's
// record: no lost successes, no duplicated successes, contiguous sequence
// numbers.
func auditLedger(id int, ledger []LedgerEntry, recs []clientRec) []string {
	var problems []string
	succByOp := make(map[uint64]int)
	var lastSeq uint64
	for _, e := range ledger {
		if e.Seq == 0 {
			continue
		}
		succByOp[e.OpID]++
		if e.Seq != lastSeq+1 {
			problems = append(problems,
				fmt.Sprintf("device %d: ledger seq gap: %d after %d (op %d)", id, e.Seq, lastSeq, e.OpID))
		}
		lastSeq = e.Seq
	}
	for opID, n := range succByOp {
		if n > 1 {
			problems = append(problems,
				fmt.Sprintf("device %d: op %d succeeded %d times (duplicated)", id, opID, n))
		}
	}
	clientSuccess := make(map[uint64]bool)
	for _, r := range recs {
		if r.code == OpPing {
			continue // pings are not ledgered
		}
		if r.ok {
			clientSuccess[r.opID] = true
			if succByOp[r.opID] != 1 {
				problems = append(problems,
					fmt.Sprintf("device %d: client saw op %d (%s) succeed but ledger has %d successful entries (lost?)",
						id, r.opID, r.code, succByOp[r.opID]))
			}
		}
	}
	for opID := range succByOp {
		if !clientSuccess[opID] {
			problems = append(problems,
				fmt.Sprintf("device %d: ledger success for op %d the client never saw (orphaned)", id, opID))
		}
	}
	return problems
}

// auditQuarantine demands that a quarantine be traceable to injected
// faults: more recorded causes than the restart budget allows, every one an
// injected power loss (or a deliberate test panic).
func auditQuarantine(id int, budget int64, causes []string) []string {
	var problems []string
	if int64(len(causes)) <= budget {
		problems = append(problems,
			fmt.Sprintf("device %d: quarantined with only %d recorded causes (budget %d)", id, len(causes), budget))
	}
	for _, c := range causes {
		if !strings.HasPrefix(c, "fault: ") && !strings.HasPrefix(c, "panic: ") {
			problems = append(problems,
				fmt.Sprintf("device %d: quarantine cause not traceable to an injected fault: %q", id, c))
		}
	}
	return problems
}

// digestLedger fingerprints a ledger for cross-run determinism checks.
func digestLedger(ledger []LedgerEntry) string {
	h := fnv.New64a()
	for _, e := range ledger {
		fmt.Fprintf(h, "%d|%d|%d|%s\n", e.OpID, e.Code, e.Seq, e.Err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
