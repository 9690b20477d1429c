package main

import "fmt"

// endToEnd lists the metrics every untraced run reports, for every
// workload. alloc_kb_per_unit is defined on the workload's unit of work:
// an op (serve), a schedule (explore), an experiment (eval-suite).
var endToEnd = map[string]string{
	"setup_s":           "s",
	"alloc_kb_per_unit": "KB",
	"peak_rss_mb":       "MB",
}

// evalLayers are the experiments that took at least 0.1 s in a serial pass
// at seed 1 when the list was drawn up; each is reported as eval.<id>_s.
var evalLayers = []string{
	"ablation-capacity", "ablation-lazy", "ablation-selective", "anchors",
	"ext-firmware", "ext-pinonsoc", "fig10", "fig11", "fig2", "fig6", "fig8",
	"fig9", "table2", "trace-bus", "trace-crypto",
}

// perLayer lists the metrics every traced run reports, with their units.
// A traced run measures the probes (residency, device exec, model checker)
// on every workload, and each workload's own layers on that workload; a
// layer a workload does not run reports 0.
func perLayer() map[string]string {
	m := map[string]string{
		"http.rtt_p50_us":             "us",
		"http.rtt_p99_us":             "us",
		"http.handler_p50_us":         "us",
		"http.handler_p99_us":         "us",
		"http.outside_handler_p50_us": "us",
		"http.req_bytes":              "B",
		"http.resp_bytes":             "B",
		"self.http.client_us":         "us",
		"self.http.handler_us":        "us",
		"self.fleet.do_us":            "us",
		"fleet.do_p50_us":             "us",
		"fleet.do_p99_us":             "us",
		"fleet.execs_per_op":          "ratio",
		"fleet.retries_per_op":        "ratio",
		"fleet.overloads":             "count",
		"fleet.sheds":                 "count",
		"fleet.ops_failed_frac":       "ratio",
		"fleet.alloc_kb_per_op":       "KB",
		"fleet.hydrations_per_op":     "ratio",
		"fleet.parks_per_op":          "ratio",
		"fleet.parked_kb_per_device":  "KB",
		"snapshot.park_p50_us":        "us",
		"snapshot.park_alloc_kb":      "KB",
		"snapshot.hydrate_p50_us":     "us",
		"snapshot.hydrate_alloc_kb":   "KB",
		"snapshot.delta_kb":           "KB",
		"mem.rebase_p50_us":           "us",
		"cache.l2_deflate_p50_us":     "us",
		"cache.l2_clone_p50_us":       "us",
		"explore.ops_per_schedule":    "ratio",
		"explore.snapshot_hit_frac":   "ratio",
		"explore.handoff_frac":        "ratio",
		"explore.replayed_ops":        "count",
		"explore.evictions":           "count",
		"explore.peak_resident":       "count",
		"check.fork_p50_us":           "us",
		"check.fork_alloc_kb":         "KB",
		"check.apply_p50_us":          "us",
		"exec.lock_p50_us":            "us",
		"exec.unlock_p50_us":          "us",
		"exec.disk_write_p50_us":      "us",
		"exec.disk_read_p50_us":       "us",
		"exec.sim_cycles_per_op":      "cycles",
		"load.gen_lag_p99_ms":         "ms",
		"trace.overhead_frac":         "ratio",
	}
	for _, id := range evalLayers {
		m["eval."+id+"_s"] = "s"
	}
	return m
}

// finish checks that a run reported exactly its mode's metric set. A traced
// run fills the layers its workload does not exercise with 0.
func (r *run) finish() error {
	want := endToEnd
	if r.trace {
		want = perLayer()
		for _, name := range sortedKeys(want) {
			if _, ok := r.res.Metrics[name]; !ok {
				r.res.Metrics[name] = metric{Value: 0, Unit: want[name]}
				fmt.Printf("metric %-34s %14s %-6s (not on this workload's path)\n", name, "0", want[name])
			}
		}
	}
	for name, m := range r.res.Metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not in the %s set", name, mode(r.trace))
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, want %s", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := r.res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s missing", name)
		}
	}
	return nil
}

func mode(trace bool) string {
	if trace {
		return "per-layer"
	}
	return "end-to-end"
}
