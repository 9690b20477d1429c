package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"sentry/internal/bench"
	"sentry/internal/check/explore"
	"sentry/internal/fleet"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileRefusesThinTail: a percentile is reported only with at
// least minTail samples beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.p*100, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.p*100, c.n, got, c.want)
		}
	}
}

// TestOpenLoopTimedFromScheduledSend: ops due every millisecond against a
// server that takes 20 ms each queue behind one connection, and each op's
// latency includes its wait since the scheduled send, not only its own
// service time.
func TestOpenLoopTimedFromScheduledSend(t *testing.T) {
	const service = 20 * time.Millisecond
	do := func(ctx context.Context, id fleet.DeviceID, op fleet.Op) (fleet.Result, error) {
		time.Sleep(service)
		return fleet.Result{}, nil
	}
	calls := make([]call, 6)
	out := openLoop(do, calls, 1000, 1)
	for i, s := range out {
		// Op i is due at i ms and completes no earlier than (i+1)*20 ms.
		floor := time.Duration(i+1)*service - time.Duration(i)*time.Millisecond
		if s.lat < floor {
			t.Errorf("op %d: latency %v < %v: not timed from its scheduled send", i, s.lat, floor)
		}
	}
	if last := out[len(out)-1].lat; last < 5*service {
		t.Errorf("last op latency %v hides its queueing behind earlier ops", last)
	}
}

// TestOpenLoopLagCountsOnlyGeneratorLateness: an op picked up after its due
// time because every connection was busy is not generator lag.
func TestOpenLoopLagCountsOnlyGeneratorLateness(t *testing.T) {
	do := func(ctx context.Context, id fleet.DeviceID, op fleet.Op) (fleet.Result, error) {
		time.Sleep(10 * time.Millisecond)
		return fleet.Result{}, nil
	}
	out := openLoop(do, make([]call, 5), 1000, 1)
	for i, s := range out {
		if s.lag > 5*time.Millisecond {
			t.Errorf("op %d: lag %v counts connection queueing as generator lag", i, s.lag)
		}
	}
}

func fakeResults(cell string) []bench.Result {
	r := &bench.Report{ID: "fig2", Title: "t", Header: []string{"app", "ms"}}
	r.Add("maps", cell)
	return []bench.Result{{Exp: bench.Experiment{ID: "fig2"}, Report: r}}
}

// TestEvalDigestCatchesPerturbation: the recorded digest passes, and a
// wrong expectation or a perturbed report fails the check.
func TestEvalDigestCatchesPerturbation(t *testing.T) {
	want := evalDigest(fakeResults("12.5"))
	if p := evalProblems(1, fakeResults("12.5"), want); len(p) != 0 {
		t.Fatalf("matching digest flagged: %v", p)
	}
	if p := evalProblems(1, fakeResults("12.6"), want); len(p) != 1 {
		t.Errorf("perturbed report passed: %v", p)
	}
	wrong := strings.Repeat("0", len(want))
	if p := evalProblems(1, fakeResults("12.5"), wrong); len(p) != 1 {
		t.Errorf("wrong recorded digest passed: %v", p)
	}
}

// TestEvalDigestRecorded runs the suite at the first recorded seed and
// compares it with the table.
func TestEvalDigestRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation suite")
	}
	e := evalDigests[0]
	if p := evalProblems(e.seed, bench.RunAll(e.seed, 0), e.digest); len(p) != 0 {
		t.Errorf("%v", p)
	}
}

// TestCoverageCheck: a clean sweep with the recorded hash passes; a
// perturbed hash, a wrong expectation or a violation fails.
func TestCoverageCheck(t *testing.T) {
	want := coverage{seed: 1, hash: map[string]uint64{"tegra3": 0xabc}}
	if p := exploreProblems("tegra3", &explore.Result{CoverageHash: 0xabc}, want); len(p) != 0 {
		t.Fatalf("matching sweep flagged: %v", p)
	}
	if p := exploreProblems("tegra3", &explore.Result{CoverageHash: 0xabd}, want); len(p) != 1 {
		t.Errorf("perturbed coverage passed: %v", p)
	}
	if p := exploreProblems("nexus4", &explore.Result{CoverageHash: 0xabc}, want); len(p) != 1 {
		t.Errorf("unrecorded platform passed: %v", p)
	}
	if p := exploreProblems("tegra3", &explore.Result{CoverageHash: 0xabc, Violations: 1}, want); len(p) != 1 {
		t.Errorf("violating sweep passed: %v", p)
	}
}

// TestCoverageRecorded sweeps the recorded tree on tegra3 and compares its
// coverage with the recorded hash, and with a perturbed one.
func TestCoverageRecorded(t *testing.T) {
	want := exploreTree
	res := explore.Run(exploreConfig("tegra3", want.seed, exploreBudget, 0))
	if p := exploreProblems("tegra3", res, want); len(p) != 0 {
		t.Errorf("%v", p)
	}
	bad := coverage{seed: want.seed, hash: map[string]uint64{"tegra3": want.hash["tegra3"] ^ 1}}
	if p := exploreProblems("tegra3", res, bad); len(p) != 1 {
		t.Errorf("perturbed recorded hash passed: %v", p)
	}
}

// TestOnlyAllowedWireCodes: ok, locked and bad_pin are answers; every
// other code, including a failed read verification ("other"), is a failure.
func TestOnlyAllowedWireCodes(t *testing.T) {
	var ss []sample
	for _, code := range []string{"ok", "locked", "bad_pin", "other", "overload", "shed", "deadline",
		"circuit_open", "quarantined", "restarted"} {
		ss = append(ss, sample{code: code})
	}
	got := tallyOf("p", ss)
	if got.ok != 1 || got.domain != 2 || got.failed != 7 {
		t.Errorf("ok %d refused %d failed %d, want 1 2 7", got.ok, got.domain, got.failed)
	}
}

func rec(opID uint64, code fleet.OpCode, wire string) sample {
	return sample{call: call{op: fleet.Op{Code: code}}, opID: opID, code: wire}
}

// TestLedgerAudit: a contiguous ledger that matches the client passes; a
// gap, a duplicate, a lost success or an orphaned one fails.
func TestLedgerAudit(t *testing.T) {
	recs := []sample{rec(1, fleet.OpLock, "ok"), rec(2, fleet.OpTouch, "locked"), rec(3, fleet.OpUnlock, "ok"), rec(4, fleet.OpPing, "ok")}
	good := []fleet.LedgerEntry{{OpID: 1, Seq: 1}, {OpID: 2, Err: "locked"}, {OpID: 2, Err: "locked"}, {OpID: 3, Seq: 2}}
	if p := ledgerProblems(good, recs); len(p) != 0 {
		t.Fatalf("good ledger flagged: %v", p)
	}
	for name, ledger := range map[string][]fleet.LedgerEntry{
		"gap":      {{OpID: 1, Seq: 1}, {OpID: 3, Seq: 3}},
		"dup":      {{OpID: 1, Seq: 1}, {OpID: 1, Seq: 2}, {OpID: 3, Seq: 3}},
		"lost":     {{OpID: 1, Seq: 1}},
		"orphaned": {{OpID: 1, Seq: 1}, {OpID: 3, Seq: 2}, {OpID: 9, Seq: 3}},
	} {
		if p := ledgerProblems(ledger, recs); len(p) == 0 {
			t.Errorf("%s ledger passed", name)
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, layer: "client", start: at(0), end: at(100)},
		{id: 2, parent: 1, layer: "handler", start: at(10), end: at(50)},
		{id: 3, parent: 1, layer: "handler", start: at(40), end: at(70)},
		{id: 4, parent: 1, layer: "handler", start: at(90), end: at(120)},
	}
	self := selfTimes(spans)
	if want := 30 * time.Millisecond; self[1] != want {
		t.Errorf("self time %v, want %v", self[1], want)
	}
	if self[2] != 40*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", self[2])
	}
}

// TestBenchmarkJSONMatchesCatalog: BENCHMARK.json lists exactly the
// metrics the program reports, with the same units.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] not reported as such (program: %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}
