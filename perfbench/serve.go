package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"sentry/internal/fleet"
)

// serveSpec is a serve workload's fleet shape: sentryd's -devices and
// -resident-cap. Every other option is at sentryd's default except
// -faults none.
type serveSpec struct {
	devices, residentCap int
}

var serveSpecs = map[string]serveSpec{
	// 4x overcommit: about three ops in four hydrate a parked device.
	"serve-churn": {devices: 256, residentCap: 64},
	// Every device stays resident after warm-up: nothing parks or hydrates.
	"serve-resident": {devices: 64},
}

const (
	// latencyShare is the part of -seconds spent in the open-loop latency
	// phase; the closed-loop throughput phase takes the rest.
	latencyShare = 0.4
	// rateSlice is the slice length the throughput phase is cut into.
	rateSlice = 100 * time.Millisecond
	// ledgerSample is how many devices' ledgers are audited per run.
	ledgerSample = 16
)

func (r *run) spec() serveSpec { return serveSpecs[r.workload] }

// warmCalls touches every device once, so that each has booted (and, past
// the resident cap, parked) before anything is timed.
func warmCalls(devices int) []call {
	calls := make([]call, devices)
	for i := range calls {
		calls[i] = call{dev: fleet.DeviceID(i), op: fleet.Op{Code: fleet.OpTouch, Arg: uint64(i), Prio: fleet.PrioNormal}}
	}
	return calls
}

// newTransport returns a transport that opens at most conns connections.
func newTransport(conns int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
}

// phase is one accounted stretch of a serve run.
type phase struct {
	tally
	srvOK, srvFailed float64 // server-side fleet.ops_ok / fleet.ops_failed deltas
}

func printPhases(phases []phase) {
	fmt.Printf("%-11s %9s %9s %9s %7s   %11s %11s   %s\n",
		"phase", "attempted", "ok", "refused", "failed", "srv_ops_ok", "srv_failed", "failed by code")
	for _, p := range phases {
		fmt.Printf("%-11s %9d %9d %9d %7d   %11.0f %11.0f  %s\n",
			p.phase, p.attempted, p.ok, p.domain, p.failed, p.srvOK, p.srvFailed, p.failedCodes())
	}
	fmt.Println("note: the server counts locked/bad_pin refusals and failures in fleet.ops_failed; the client counts them as successes.")
}

// serveE2E is the untraced serve run: set-up (timed repeatedly, see
// timeSetups), an open-loop latency phase at the workload's fixed rate, a
// closed-loop phase whose CPU time and allocation per op are the result,
// then the ledger audit. The fleet is served by fleet.NewHandler on a
// loopback listener in this process and driven through fleet.HTTPClient;
// with one P, server and load share one core and never wait on each other
// across cores.
func serveE2E(r *run) error {
	spec := r.spec()
	rate := r.rates[r.workload]
	if rate <= 0 {
		return fmt.Errorf("no fixed rate for %s (-churn-rate / -resident-rate)", r.workload)
	}
	var (
		srv     *inProcess
		warm    []sample
		records = map[fleet.DeviceID][]sample{}
	)
	stop, setups, err := timeSetups(func() (func(), error) {
		p, err := hostInProcess(spec, r.seed, r.conns)
		if err != nil {
			return nil, err
		}
		srv, warm = p, runCalls(p.plain.Do, warmCalls(spec.devices), r.conns)
		return func() { p.close(); releaseHeap() }, nil
	})
	if err != nil {
		return err
	}
	defer stop()

	// Warm-up is the first phase; the fleet's counters start at zero.
	var phases []phase
	reg := srv.f.Metrics()
	var okBefore, failedBefore uint64
	account := func(name string, ss []sample) {
		ok, failed := reg.CounterValue(fleet.MetricOpsOK), reg.CounterValue(fleet.MetricOpsFailed)
		phases = append(phases, phase{tally: tallyOf(name, ss),
			srvOK: float64(ok - okBefore), srvFailed: float64(failed - failedBefore)})
		okBefore, failedBefore = ok, failed
		for _, s := range ss {
			records[s.dev] = append(records[s.dev], s)
		}
	}
	account("warm-up", warm)

	p := newPlanner(r.seed, spec.devices)
	n := int(rate * r.seconds * latencyShare)
	lat := openLoop(srv.plain.Do, p.take(n), rate, r.conns)
	account("latency", lat)
	m := measured{start: readUsage()}
	thr, elapsed := closedLoop(srv.plain.Do, p, r.conns, time.Duration(r.seconds*(1-latencyShare)*float64(time.Second)))
	if err := m.markFirst(); err != nil {
		return err
	}
	m.end = m.first
	account("throughput", thr)
	printPhases(phases)
	for _, ph := range phases {
		r.count(ph.attempted, ph.failed)
	}

	auditLedgers(r, srv.plain, spec.devices, records)

	var reads, writes, all, lags []float64
	for _, s := range lat {
		ms := float64(s.lat) / float64(time.Millisecond)
		all = append(all, ms)
		lags = append(lags, float64(s.lag)/float64(time.Millisecond))
		if isRead(s.op.Code) {
			reads = append(reads, ms)
		} else {
			writes = append(writes, ms)
		}
	}
	r.set("setup_s", "s", median(setups), len(setups))
	r.setCosts(m, len(thr), len(thr))
	thrT := phases[len(phases)-1].tally
	rates := sliceRates(thr, elapsed, rateSlice)
	fmt.Printf("detail %-34s %14.4f ops/s  (n=%d slices)\n", "throughput_ops_s", median(rates), len(rates))
	fmt.Printf("detail %-34s %14.4f ops/s  (n=%d)\n", "throughput_mean", float64(thrT.ok+thrT.domain)/elapsed.Seconds(), thrT.attempted)
	printDetail("p50_ms", all, 0.5)
	printDetail("read_p50_ms", reads, 0.5)
	printDetail("write_p50_ms", writes, 0.5)
	printDetail("p90_ms", all, 0.9)
	printDetail("p99_ms", all, 0.99)
	checkLag(lags, rate)
	return nil
}

// printDetail prints a latency percentile of the open-loop phase that the
// result line does not carry, or why the percentile rule refused it.
func printDetail(name string, ms []float64, p float64) {
	v, err := percentile(ms, p)
	if err != nil {
		fmt.Printf("detail %-34s refused: %v\n", name, err)
		return
	}
	fmt.Printf("detail %-34s %14.4f ms     (n=%d)\n", name, v, len(ms))
}

// checkLag prints whether the open-loop generator kept its schedule and
// returns its lag p99. The run is invalid when that lag exceeds the
// interval between arrivals: late sends then bunch up, and the offered load
// is no longer the scheduled one.
func checkLag(lagsMS []float64, rate float64) float64 {
	lag, err := percentile(lagsMS, 0.99)
	if err != nil {
		fmt.Println("validity: unknown:", err)
		return 0
	}
	interval := 1000 / rate
	if lag > interval {
		fmt.Printf("validity: INVALID: generator lag p99 %.3f ms > arrival interval %.3f ms: the sender fell behind its schedule\n", lag, interval)
	} else {
		fmt.Printf("validity: ok: generator lag p99 %.3f ms <= arrival interval %.3f ms\n", lag, interval)
	}
	return lag
}

// auditLedgers reads the ledger of a seed-independent sample of devices
// through HTTPClient.Ledger and checks it against what the client saw:
// successful entries carry contiguous sequence numbers from 1, each
// successful op appears exactly once, and no success is unknown to the
// client.
func auditLedgers(r *run, c fleet.Client, devices int, records map[fleet.DeviceID][]sample) {
	step := max(devices/ledgerSample, 1)
	for id := 0; id < devices; id += step {
		dev := fleet.DeviceID(id)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ledger, err := c.Ledger(ctx, dev)
		cancel()
		if err != nil {
			r.fail("device %d: ledger: %v", id, err)
			continue
		}
		for _, p := range ledgerProblems(ledger, records[dev]) {
			r.fail("device %d: %s", id, p)
		}
	}
}

// ledgerProblems audits one device's ledger against the client's records.
func ledgerProblems(ledger []fleet.LedgerEntry, recs []sample) []string {
	var problems []string
	succ := map[uint64]int{}
	var last uint64
	for _, e := range ledger {
		if e.Seq == 0 {
			continue
		}
		succ[e.OpID]++
		if e.Seq != last+1 {
			problems = append(problems, fmt.Sprintf("ledger seq gap: %d after %d (op %d)", e.Seq, last, e.OpID))
		}
		last = e.Seq
	}
	seen := map[uint64]bool{}
	for _, s := range recs {
		if s.op.Code == fleet.OpPing || s.code != fleet.CodeOK {
			continue
		}
		seen[s.opID] = true
		if succ[s.opID] != 1 {
			problems = append(problems, fmt.Sprintf("client saw op %d (%s) succeed; ledger has %d successes", s.opID, s.op.Code, succ[s.opID]))
		}
	}
	for opID, n := range succ {
		if n > 1 {
			problems = append(problems, fmt.Sprintf("op %d succeeded %d times", opID, n))
		}
		if !seen[opID] {
			problems = append(problems, fmt.Sprintf("ledger success for op %d the client never saw", opID))
		}
	}
	return problems
}
