package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"sentry/internal/faults"
	"sentry/internal/fleet"
)

// overheadSlices is how many alternating untraced/traced closed-loop slices
// measure the tracing overhead, in ABBA order so that drift cancels.
const overheadSlices = 4

// tracedMinOps is the least number of ops in each traced phase, so that
// the p99 of its spans has minTail samples beyond it.
const tracedMinOps = 1100

// inProcess is the fleet hosted in this process behind two listeners: one
// serving the plain handler, one the traced one.
type inProcess struct {
	f             *fleet.Fleet
	tr            *tracer
	ht            *handlerTracer
	plain, traced *fleet.HTTPClient
	servers       []*http.Server
	serveErr      chan error
}

func hostInProcess(spec serveSpec, seed int64, conns int) (*inProcess, error) {
	f := fleet.Open(spec.devices, fleet.WithSeed(seed), fleet.WithFaults(faults.None()),
		fleet.WithResidentCap(spec.residentCap))
	p := &inProcess{f: f, tr: &tracer{}, serveErr: make(chan error, 2)}
	p.ht = &handlerTracer{next: fleet.NewHandler(f), t: p.tr}
	var urls []string
	for _, h := range []http.Handler{fleet.NewHandler(f), p.ht} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		srv := &http.Server{Handler: h}
		p.servers = append(p.servers, srv)
		urls = append(urls, "http://"+l.Addr().String())
		go func() { p.serveErr <- srv.Serve(l) }()
	}
	p.plain = fleet.NewHTTPClient(urls[0], &http.Client{Transport: newTransport(conns)})
	p.traced = fleet.NewHTTPClient(urls[1], &http.Client{Transport: &clientTransport{base: newTransport(conns), t: p.tr}})
	return p, nil
}

// close shuts both listeners and the fleet, and waits for the servers.
func (p *inProcess) close() {
	for _, srv := range p.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-p.serveErr
	}
	if p.plain != nil {
		p.plain.Close()
		p.traced.Close()
	}
	p.f.Close()
}

// fleetDo wraps Fleet.Do in a "fleet.do" span.
func (p *inProcess) fleetDo(ctx context.Context, id fleet.DeviceID, op fleet.Op) (fleet.Result, error) {
	start := time.Now()
	res, err := p.f.Do(ctx, id, op)
	p.tr.add(span{id: p.tr.newID(), layer: "fleet.do", start: start, end: time.Now()})
	return res, err
}

// serveTraced is the per-layer serve run. The fleet runs in process behind
// the benchmark's wrapping handler; the client tags each request so its
// handler span parents onto its client span. It measures, in order:
// tracing overhead (alternating untraced and traced closed-loop slices),
// the traced HTTP path at the workload's fixed rate, and the same plan
// replayed through Fleet.Do in process.
func serveTraced(r *run) error {
	spec := r.spec()
	rate := r.rates[r.workload]
	if rate <= 0 {
		return fmt.Errorf("no fixed rate for %s (-churn-rate / -resident-rate)", r.workload)
	}
	p, err := hostInProcess(spec, r.seed, r.conns)
	if err != nil {
		return err
	}
	defer p.close()
	records := map[fleet.DeviceID][]sample{}
	keep := func(name string, ss []sample) tally {
		for _, s := range ss {
			records[s.dev] = append(records[s.dev], s)
		}
		t := tallyOf(name, ss)
		r.count(t.attempted, t.failed)
		return t
	}
	tallies := []tally{keep("warm-up", runCalls(p.plain.Do, warmCalls(spec.devices), r.conns))}

	pl := newPlanner(r.seed, spec.devices)
	slice := time.Duration(r.seconds * 0.1 * float64(time.Second))
	var tput [2]struct {
		ops     int
		elapsed time.Duration
	}
	for i := 0; i < overheadSlices; i++ {
		do, k := p.plain.Do, 0
		if i%4 == 1 || i%4 == 2 {
			do, k = p.traced.Do, 1
		}
		ss, el := closedLoop(do, pl, r.conns, slice)
		t := keep(fmt.Sprintf("overhead-%d", i), ss)
		tput[k].ops += t.ok + t.domain
		tput[k].elapsed += el
		tallies = append(tallies, t)
	}
	p.tr.take()
	untraced := float64(tput[0].ops) / tput[0].elapsed.Seconds()
	traced := float64(tput[1].ops) / tput[1].elapsed.Seconds()

	reg := p.f.Metrics()
	names := []string{fleet.MetricOpsOK, fleet.MetricOpsFailed, fleet.MetricExecs, fleet.MetricRetries,
		fleet.MetricOverloads, fleet.MetricSheds, fleet.MetricHydrations, fleet.MetricParks}
	before := map[string]uint64{}
	for _, n := range names {
		before[n] = reg.CounterValue(n)
	}
	n := max(int(rate*r.seconds*0.4), tracedMinOps)
	calls := pl.take(n)
	p.ht.reqBytes.Store(0)
	p.ht.respBytes.Store(0)
	p.ht.batches.Store(0)
	httpSamples := openLoop(p.traced.Do, calls, rate, r.conns)
	tallies = append(tallies, keep("traced-http", httpSamples))
	httpSpans := p.tr.take()
	batches := float64(p.ht.batches.Load())
	reqBytes, respBytes := float64(p.ht.reqBytes.Load())/batches, float64(p.ht.respBytes.Load())/batches

	var doSamples []sample
	_, allocKBTotal := allocKB(func() { doSamples = openLoop(p.fleetDo, calls, rate, r.conns) })
	tallies = append(tallies, keep("in-process", doSamples))
	doSpans := p.tr.take()
	delta := map[string]float64{}
	for _, n := range names {
		delta[n] = float64(reg.CounterValue(n) - before[n])
	}
	ops := float64(len(httpSamples) + len(doSamples))

	for _, t := range tallies {
		fmt.Printf("phase %-12s attempted %6d ok %6d refused %5d failed %3d failed by code%s\n",
			t.phase, t.attempted, t.ok, t.domain, t.failed, t.failedCodes())
	}
	auditLedgers(r, p.traced, spec.devices, records)

	rows := layerTable(append(httpSpans, doSpans...))
	printLayerTable(rows)
	client, handler, do := rows["http.client"], rows["http.handler"], rows["fleet.do"]
	if client == nil || handler == nil || do == nil {
		return fmt.Errorf("missing spans: client %v handler %v fleet.do %v", client != nil, handler != nil, do != nil)
	}
	for _, m := range []struct {
		name string
		xs   []time.Duration
		p    float64
	}{
		{"http.rtt_p50_us", client.durs, 0.5}, {"http.rtt_p99_us", client.durs, 0.99},
		{"http.handler_p50_us", handler.durs, 0.5}, {"http.handler_p99_us", handler.durs, 0.99},
		{"http.outside_handler_p50_us", client.selfs, 0.5},
		{"fleet.do_p50_us", do.durs, 0.5}, {"fleet.do_p99_us", do.durs, 0.99},
	} {
		v, err := percentile(durUS(m.xs), m.p)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		r.set(m.name, "us", v, len(m.xs))
	}
	for _, row := range []*layerRow{client, handler, do} {
		r.set("self."+row.layer+"_us", "us", float64(row.self)/1e3/float64(row.spans), row.spans)
	}
	r.set("http.req_bytes", "B", reqBytes, int(batches))
	r.set("http.resp_bytes", "B", respBytes, int(batches))
	r.set("fleet.execs_per_op", "ratio", delta[fleet.MetricExecs]/ops, int(ops))
	r.set("fleet.retries_per_op", "ratio", delta[fleet.MetricRetries]/ops, int(ops))
	r.set("fleet.overloads", "count", delta[fleet.MetricOverloads], 0)
	r.set("fleet.sheds", "count", delta[fleet.MetricSheds], 0)
	r.set("fleet.ops_failed_frac", "ratio",
		delta[fleet.MetricOpsFailed]/(delta[fleet.MetricOpsOK]+delta[fleet.MetricOpsFailed]), int(ops))
	r.set("fleet.alloc_kb_per_op", "KB", allocKBTotal/float64(len(doSamples)), len(doSamples))
	r.set("fleet.hydrations_per_op", "ratio", delta[fleet.MetricHydrations]/ops, int(ops))
	r.set("fleet.parks_per_op", "ratio", delta[fleet.MetricParks]/ops, int(ops))
	h, err := p.f.Health(context.Background())
	if err != nil {
		return err
	}
	parkedKB := 0.0
	if parked := h.Touched - h.Resident; parked > 0 {
		parkedKB = float64(reg.GaugeValue(fleet.MetricParkedBytes)) / 1024 / float64(parked)
	}
	r.set("fleet.parked_kb_per_device", "KB", parkedKB, h.Touched-h.Resident)
	var lags []float64
	for _, s := range httpSamples {
		lags = append(lags, float64(s.lag)/float64(time.Millisecond))
	}
	r.set("load.gen_lag_p99_ms", "ms", checkLag(lags, rate), len(lags))
	r.set("trace.overhead_frac", "ratio", 1-traced/untraced, tput[0].ops+tput[1].ops)
	fmt.Printf("overhead: untraced %.1f ops/s, traced %.1f ops/s (closed loop, %d connections, in process)\n",
		untraced, traced, r.conns)
	runtime.GC()
	return runProbes(r)
}
