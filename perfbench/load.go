package main

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sentry/internal/fleet"
	"sentry/internal/sim"
)

// call is one planned operation against one device.
type call struct {
	dev fleet.DeviceID
	op  fleet.Op
}

// planner hands out the workload's op stream: call i is a pure function of
// (seed, i), whichever load loop or worker draws it.
type planner struct {
	mu      sync.Mutex
	rng     *sim.RNG
	devices int
}

func newPlanner(seed int64, devices int) *planner {
	return &planner{rng: sim.NewRNG(seed), devices: devices}
}

func (p *planner) next() call {
	p.mu.Lock()
	defer p.mu.Unlock()
	return call{dev: fleet.DeviceID(p.rng.Intn(p.devices)), op: genOp(p.rng)}
}

// take draws the next n calls.
func (p *planner) take(n int) []call {
	out := make([]call, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// genOp draws from sentryload's serving mix: 10 ping, 15 lock, 20 unlock,
// 25 touch, 15 disk-write, 15 disk-read.
func genOp(rng *sim.RNG) fleet.Op {
	r := rng.Intn(100)
	arg := uint64(rng.Intn(1 << 16))
	switch {
	case r < 10:
		return fleet.Op{Code: fleet.OpPing, Arg: arg, Prio: fleet.PrioLow}
	case r < 25:
		return fleet.Op{Code: fleet.OpLock, Arg: arg, Prio: fleet.PrioHigh}
	case r < 45:
		return fleet.Op{Code: fleet.OpUnlock, Arg: arg, Prio: fleet.PrioHigh}
	case r < 70:
		return fleet.Op{Code: fleet.OpTouch, Arg: arg, Prio: fleet.PrioNormal}
	case r < 85:
		return fleet.Op{Code: fleet.OpDiskWrite, Arg: arg, Prio: fleet.PrioNormal}
	default:
		return fleet.Op{Code: fleet.OpDiskRead, Arg: arg, Prio: fleet.PrioNormal}
	}
}

// isRead reports whether an op only observes device state.
func isRead(c fleet.OpCode) bool {
	return c == fleet.OpPing || c == fleet.OpTouch || c == fleet.OpDiskRead
}

// doFunc is the front door a load loop drives: fleet.Fleet.Do in process,
// fleet.HTTPClient.Do over the wire.
type doFunc func(ctx context.Context, id fleet.DeviceID, op fleet.Op) (fleet.Result, error)

// opTimeout bounds one op. A healthy run finishes every op far inside it;
// an op that hits it is counted as a deadline failure.
const opTimeout = 30 * time.Second

// sample is one completed op.
type sample struct {
	call
	opID uint64
	code string
	// lat is completion minus the scheduled send (open loop) or minus the
	// actual send (closed loop).
	lat time.Duration
	// lag is how late the generator sent an op whose connection was free:
	// actual send minus the later of its schedule and the moment a worker
	// picked it up. Open loop only.
	lag time.Duration
	// done is when the op completed, measured from the start of its loop.
	done time.Duration
}

func runOne(do doFunc, c call) (uint64, string) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	res, err := do(ctx, c.dev, c.op)
	return res.OpID, fleet.ErrorCode(err)
}

// openLoop sends calls[i] due at start+i/rate, over conns workers (one
// connection each). An op that falls due while every worker is busy waits,
// and that wait is part of its latency: latency is timed from the scheduled
// send, not the actual one.
func openLoop(do doFunc, calls []call, rate float64, conns int) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, len(calls))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				c := calls[i]
				due := start.Add(time.Duration(i) * interval)
				picked := time.Now()
				if d := due.Sub(picked); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				opID, code := runOne(do, c)
				lag := sent.Sub(due)
				if picked.After(due) {
					lag = sent.Sub(picked)
				}
				out[i] = sample{call: c, opID: opID, code: code, lat: time.Since(due), lag: lag}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps one op in flight on each of conns workers until d has
// elapsed, and returns the ops completed and the time they took.
func closedLoop(do doFunc, p *planner, conns int, d time.Duration) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				c := p.next()
				sent := time.Now()
				opID, code := runOne(do, c)
				mine = append(mine, sample{call: c, opID: opID, code: code, lat: time.Since(sent), done: time.Since(start)})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// sliceRates cuts a closed loop's run into n equal slices of about slice
// each and returns each slice's rate: the ops completed (not failed) in it
// over its length. On a host whose speed varies from one fraction of a
// second to the next, the median of many short slices is steadier from run
// to run than one mean over the whole loop.
func sliceRates(ss []sample, elapsed, slice time.Duration) []float64 {
	n := int(elapsed / slice)
	if n < 1 {
		return nil
	}
	length := elapsed / time.Duration(n)
	rates := make([]float64, n)
	for _, s := range ss {
		if i := int(s.done / length); i < n && classify(s.code) != outFailed {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= length.Seconds()
	}
	return rates
}

// runCalls sends a fixed list of calls closed loop over conns workers.
func runCalls(do doFunc, calls []call, conns int) []sample {
	out := make([]sample, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				sent := time.Now()
				opID, code := runOne(do, calls[i])
				out[i] = sample{call: calls[i], opID: opID, code: code, lat: time.Since(sent)}
			}
		}()
	}
	wg.Wait()
	return out
}

// Outcome classes. A locked or bad_pin answer is the device correctly
// refusing what its state forbids: a successful round trip. Every other
// code is a service-level failure.
const (
	outOK = iota
	outDomain
	outFailed
)

func classify(code string) int {
	switch code {
	case fleet.CodeOK:
		return outOK
	case fleet.CodeLocked, fleet.CodeBadPIN:
		return outDomain
	}
	return outFailed
}

// tally is one phase's client-side accounting.
type tally struct {
	phase                         string
	attempted, ok, domain, failed int
	byCode                        map[string]int
}

func tallyOf(phase string, ss []sample) tally {
	t := tally{phase: phase, byCode: map[string]int{}}
	for _, s := range ss {
		t.attempted++
		t.byCode[s.code]++
		switch classify(s.code) {
		case outOK:
			t.ok++
		case outDomain:
			t.domain++
		default:
			t.failed++
		}
	}
	return t
}

// failedCodes renders the failure codes of a tally, sorted.
func (t tally) failedCodes() string {
	var codes []string
	for c := range t.byCode {
		if classify(c) == outFailed {
			codes = append(codes, c)
		}
	}
	sort.Strings(codes)
	s := ""
	for _, c := range codes {
		s += " " + c + "=" + strconv.Itoa(t.byCode[c])
	}
	if s == "" {
		return " none"
	}
	return s
}
