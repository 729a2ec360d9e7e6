// Package telemetry is the observability layer of the repository: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// latency histograms) with Prometheus text exposition, and a span tracer
// threaded through the compile pipeline via context.Context.
//
// The package deliberately imports nothing outside the standard library
// so that every layer of the stack — the clc front-end, the VM, the
// execution backends, the serving layer — can record into it without
// import cycles. The AIWC-style kernel characterizer, which needs the
// VM's tracer interface, lives in the telemetry/aiwc subpackage.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair. Series within a metric family are
// distinguished by their label sets (e.g. endpoint="compile").
type Label struct {
	Name  string
	Value string
}

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds, following the Prometheus convention (500µs to 10s).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). All methods are safe for concurrent
// use; registering the same (name, labels) twice returns the existing
// collector, so call sites can register lazily on the hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name, help, typ string
	series          map[string]collector
	keys            []string
}

// collector is anything that can render its sample lines.
type collector interface {
	expose(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders a label set canonically ({a="x",b="y"}, sorted by
// name) for use both as a series key and in exposition.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// series returns the collector registered under (name, labels), creating
// it with build on first use. It panics when a name is reused with a
// different metric type — that is a programming error, not a runtime
// condition.
func (r *Registry) series(name, help, typ string, labels []Label, build func() collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]collector{}}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.typ, typ))
	}
	key := labelString(labels)
	if c, ok := f.series[key]; ok {
		return c
	}
	c := build()
	f.series[key] = c
	f.keys = append(f.keys, key)
	sort.Strings(f.keys)
	return c
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.series(name, help, "counter", labels, func() collector { return &Counter{} }).(*Counter)
}

// funcMetric samples a callback at scrape time; it backs both GaugeFunc
// and CounterFunc so existing snapshot-style state (pool occupancy, cache
// counters) can surface without double bookkeeping.
type funcMetric struct{ f func() float64 }

func (g *funcMetric) expose(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.f()))
}

// GaugeFunc registers a gauge whose value is sampled from f at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.series(name, help, "gauge", labels, func() collector { return &funcMetric{f: f} })
}

// CounterFunc registers a counter whose value is sampled from f at scrape
// time (f must be monotonic).
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.series(name, help, "counter", labels, func() collector { return &funcMetric{f: f} })
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.mu.Lock(); g.v = v; g.mu.Unlock() }

// Add increments the gauge value by d (d may be negative).
func (g *Gauge) Add(d float64) { g.mu.Lock(); g.v += d; g.mu.Unlock() }

// Value returns the current value.
func (g *Gauge) Value() float64 { g.mu.Lock(); defer g.mu.Unlock(); return g.v }

func (g *Gauge) expose(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.series(name, help, "gauge", labels, func() collector { return &Gauge{} }).(*Gauge)
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the tail. Observations
// are O(buckets) with a single mutex — cheap enough for request-latency
// use, and snapshot-consistent for exposition.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // per-bucket (non-cumulative), len(bounds)+1 with the +Inf tail
	count  int64
	sum    float64
	max    float64 // not exposed: the text format has no series for it
}

// newHistogram copies the bounds so callers cannot mutate them later.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { h.mu.Lock(); defer h.mu.Unlock(); return h.sum }

// Max returns the largest observed value, the one aggregate the buckets
// cannot give back; 0 with no observations.
func (h *Histogram) Max() float64 { h.mu.Lock(); defer h.mu.Unlock(); return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket, the same estimate Prometheus's
// histogram_quantile computes. Observations landing beyond the last
// finite bound are reported as that bound (the histogram cannot resolve
// further). Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) expose(w io.Writer, name, labels string) {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]int64(nil), h.counts...)
	count, sum := h.count, h.sum
	h.mu.Unlock()

	// The le label composes with the series labels: strip the closing
	// brace and extend, or open a fresh set.
	prefix := "{"
	if labels != "" {
		prefix = labels[:len(labels)-1] + ","
	}
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, prefix, formatFloat(b), cum)
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (nil uses DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.series(name, help, "histogram", labels, func() collector {
		return newHistogram(bounds)
	}).(*Histogram)
}

// formatFloat renders a float the way Prometheus clients expect: integral
// values without an exponent, no trailing zeros.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in text exposition format, sorted
// by metric name and label set so scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		keys := append([]string(nil), f.keys...)
		series := make([]collector, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		help, typ := f.help, f.typ
		r.mu.Unlock()

		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		for i, c := range series {
			c.expose(w, name, keys[i])
		}
	}
}
