package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"grover/internal/service"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, the same six on every
// workload. A share of failed ops would read 0 on every clean run, which a
// relative bound cannot gate; it is carried by the result's failed and
// attempted counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"},
	{"op_geomean_ms", "ms"}, {"op_tail_ms", "ms"}, {"alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run, in module order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"clc.parse_ms", "ms"}, {"clc.src_kb_per_s", "kB/s"},
		{"lower.module_ms", "ms"}, {"lower.ir_instrs", "count"},
		{"opt.optimize_ms", "ms"}, {"opt.ir_instrs_after", "count"},
		{"ir.clone_ms", "ms"}, {"ir.print_ms", "ms"},
		{"analysis.lint_ms", "ms"}, {"analysis.findings", "count"},
		{"grover.transform_ms", "ms"}, {"grover.candidates", "count"},
		{"grover.applied", "count"}, {"grover.ir_instrs_after", "count"},
		{"rewrite.apply_ms", "ms"}, {"rewrite.plans_applied", "count"}, {"rewrite.plans_rejected", "count"},
		{"profit.rank_ms", "ms"}, {"vm.prepare_ms", "ms"}, {"wgvec.compile_ms", "ms"},
		{"vm.exec_validate_ms", "ms"}, {"device.launch_ms", "ms"},
		{"vm.exec_untraced_ms", "ms"}, {"vm.exec_ns_per_item", "ns"},
		{"vm.trace_delivery_ms", "ms"}, {"vm.trace_ns_per_access", "ns"},
		{"device.sim_ms", "ms"}, {"device.sim_ns_per_access", "ns"},
		{"device.result_ms", "ms"}, {"device.accesses", "count"},
		{"device.transactions", "count"}, {"device.sim_cycles", "count"},
		{"memsim.cache_accesses", "count"}, {"memsim.cache_hit_ratio", "ratio"},
		{"memsim.dram_accesses", "count"}, {"aiwc.characterize_ms", "ms"},
	}
	for _, e := range engineNames {
		defs = append(defs,
			metricDef{"engine." + e + ".compile_ms", "ms"},
			metricDef{"engine." + e + ".untraced_ns_per_item", "ns"},
			metricDef{"engine." + e + ".traced_ns_per_access", "ns"})
	}
	return append(defs,
		metricDef{"apps.setup_ms", "ms"}, metricDef{"apps.check_ms", "ms"},
		metricDef{"harness.op_ms", "ms"}, metricDef{"harness.cell_other_ms", "ms"},
		metricDef{"harness.span_coverage", "ratio"},
		metricDef{"service.compile_p50_ms", "ms"}, metricDef{"service.compile_p95_ms", "ms"},
		metricDef{"service.lint_p50_ms", "ms"}, metricDef{"service.lint_p95_ms", "ms"},
		metricDef{"service.transform_p50_ms", "ms"}, metricDef{"service.transform_p95_ms", "ms"},
		metricDef{"service.autotune_p50_ms", "ms"}, metricDef{"service.autotune_p95_ms", "ms"},
		metricDef{"service.hit_p50_ms", "ms"}, metricDef{"service.args_ms", "ms"},
		metricDef{"service.overhead_ms", "ms"}, metricDef{"service.queue_wait_p95_ms", "ms"},
		metricDef{"service.shed", "count"}, metricDef{"service.max_inflight", "count"},
		metricDef{"kcache.hits", "count"}, metricDef{"kcache.misses", "count"},
		metricDef{"kcache.dedups", "count"}, metricDef{"kcache.evictions", "count"},
		metricDef{"kcache.hit_ratio", "ratio"}, metricDef{"kcache.do_hit_ns", "ns"},
		metricDef{"telemetry.span_coverage", "ratio"},
		metricDef{"proc.peak_rss_mb", "MB"}, metricDef{"proc.num_gc", "count"},
		metricDef{"proc.gc_pause_ms", "ms"}, metricDef{"proc.cpu_util", "ratio"},
		metricDef{"bench.trace_overhead_ratio", "ratio"})
}()

// groupingSpans bracket other spans and are no layer of their own: an
// op's root and the per-device goroutine of a plan search. Their self
// time is the glue between layers (harness.cell_other_ms).
func groupingSpan(s span) bool { return s.Parent == 0 || s.Name == "service.device" }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced pass into the per-layer metrics. real holds
// the median real latency of each op kind performed untraced in this run
// (the warm-up mini-pass, and serve-frontend's real passes).
func layerMetrics(t *tracer, out traceOut, real map[string]float64, m *meter) map[string]float64 {
	self := selfTimes(t.rec.spans)
	selfMS := map[string]float64{}  // layer spans, self time by name
	probeMS := map[string]float64{} // probe spans, duration by name
	var opMS, otherMS, namedMS float64
	replayMS := map[string][]float64{} // root duration by op kind
	service := false
	for _, s := range t.rec.spans {
		ms := float64(self[s.ID]) / 1e6
		switch {
		case s.Probe:
			probeMS[s.Name] += float64(s.dur()) / 1e6
			continue
		case s.Parent == 0:
			opMS += float64(s.dur()) / 1e6
			if s.Op >= 1 && s.Op <= len(out.kinds) {
				k := out.kinds[s.Op-1]
				replayMS[k] = append(replayMS[k], float64(s.dur())/1e6)
			}
			service = service || strings.HasPrefix(s.Name, "service.")
		}
		if groupingSpan(s) {
			otherMS += ms
		} else {
			namedMS += ms
			selfMS[s.Name] += ms
		}
	}
	c := t.counts
	v := map[string]float64{
		"clc.parse_ms":             selfMS["clc.parse"],
		"clc.src_kb_per_s":         ratio(c["clc.src_bytes"]/1024, selfMS["clc.parse"]/1000),
		"lower.module_ms":          selfMS["lower.module"],
		"opt.optimize_ms":          selfMS["opt.optimize"],
		"ir.clone_ms":              selfMS["ir.clone"],
		"ir.print_ms":              selfMS["ir.print"],
		"analysis.lint_ms":         selfMS["analysis.lint"],
		"grover.transform_ms":      selfMS["grover.transform"],
		"rewrite.apply_ms":         selfMS["rewrite.apply"],
		"profit.rank_ms":           probeMS["profit.rank"],
		"vm.prepare_ms":            selfMS["vm.prepare"],
		"wgvec.compile_ms":         selfMS["wgvec.compile"],
		"vm.exec_validate_ms":      selfMS["vm.exec"],
		"device.launch_ms":         selfMS["device.launch"],
		"vm.exec_untraced_ms":      c["probe.untraced_ns"] / 1e6,
		"vm.exec_ns_per_item":      ratio(c["probe.untraced_ns"], c["probe.items"]),
		"vm.trace_delivery_ms":     c["probe.delivery_ns"] / 1e6,
		"vm.trace_ns_per_access":   ratio(c["probe.delivery_ns"], c["device.accesses"]),
		"device.sim_ms":            c["probe.sim_ns"] / 1e6,
		"device.sim_ns_per_access": ratio(c["probe.sim_ns"], c["device.accesses"]),
		"device.result_ms":         selfMS["device.result"],
		"memsim.cache_hit_ratio":   ratio(c["memsim.cache_hits"], c["memsim.cache_accesses"]),
		"aiwc.characterize_ms":     probeMS["aiwc.characterize"],
		"apps.setup_ms":            selfMS["apps.setup"],
		"apps.check_ms":            selfMS["apps.check"],
		"service.args_ms":          selfMS["service.args"],
		"harness.op_ms":            opMS,
		"harness.cell_other_ms":    otherMS,
		"harness.span_coverage":    ratio(namedMS, namedMS+otherMS),
		"proc.peak_rss_mb":         peakRSSMB(),
		"proc.num_gc":              float64(m.numGC),
		"proc.gc_pause_ms":         m.gcPauseMS,
		"proc.cpu_util":            ratio(m.cpuS, m.wallS),
		"kcache.hit_ratio":         ratio(c["kcache.hits"], c["kcache.hits"]+c["kcache.misses"]+c["kcache.dedups"]),
	}
	for _, e := range engineNames {
		pre := "engine." + e
		v[pre+".compile_ms"] = c[pre+".compile_ns"] / 1e6
		v[pre+".untraced_ns_per_item"] = ratio(c[pre+".untraced_ns"], c[pre+".items"])
		v[pre+".traced_ns_per_access"] = ratio(c[pre+".traced_ns"], c[pre+".accesses"])
	}
	// Tracing overhead and service overhead compare the replay of an op
	// kind with the same kind performed for real in this run.
	var replaySum, realSum float64
	n := 0
	for kind, ds := range replayMS {
		r, ok := real[kind]
		if !ok {
			continue
		}
		replaySum += median(ds)
		realSum += r
		n++
	}
	v["bench.trace_overhead_ratio"] = ratio(replaySum, realSum)
	if service && n > 0 {
		v["service.overhead_ms"] = (realSum - replaySum) / float64(n)
	}
	// Everything else is a count or gauge recorded where the work happened.
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok {
			v[d.name] = c[d.name]
		}
	}
	return v
}

// scrape reads the server's own view at the end of a traced run: cache
// and pool counters from /v1/stats, the queue-wait histogram from /metrics.
func scrape(srv http.Handler, t *tracer) error {
	code, body, _ := call(srv, "GET", "/v1/stats", nil)
	var st service.StatsResponse
	if code != http.StatusOK {
		return fmt.Errorf("/v1/stats: status %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	t.add("kcache.hits", float64(st.Cache.Hits))
	t.add("kcache.misses", float64(st.Cache.Misses))
	t.add("kcache.dedups", float64(st.Cache.Dedups))
	t.add("kcache.evictions", float64(st.Cache.Evictions))
	t.add("service.shed", float64(st.Pool.Shed))
	code, body, _ = call(srv, "GET", "/metrics", nil)
	if code != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", code)
	}
	t.add("service.queue_wait_p95_ms", 1000*histogramQuantile(body, "groverd_queue_wait_seconds", 0.95))
	return nil
}

// histogramQuantile estimates quantile q of a Prometheus text histogram
// by linear interpolation inside the bucket that holds it.
func histogramQuantile(exposition []byte, name string, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	prefix := name + `_bucket{le="`
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		leText, countText, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		count, err := strconv.ParseFloat(countText, 64)
		if err != nil {
			continue
		}
		if leText == "+Inf" {
			total = count
		} else if le, err := strconv.ParseFloat(leText, 64); err == nil {
			buckets = append(buckets, bucket{le, count})
		}
	}
	if len(buckets) == 0 || total == 0 {
		return 0
	}
	target := q * total
	lo, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= target && b.count > below {
			return lo + (b.le-lo)*(target-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return buckets[len(buckets)-1].le
}
