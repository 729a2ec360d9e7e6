package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", Label{"endpoint", "compile"})
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Re-registering the same series returns the same collector.
	if again := r.Counter("requests_total", "requests", Label{"endpoint", "compile"}); again != c {
		t.Fatal("re-registration created a new counter")
	}
	g := r.Gauge("pool_active", "active jobs")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
	r.GaugeFunc("pool_workers", "slots", func() float64 { return 8 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP requests_total requests",
		"# TYPE requests_total counter",
		`requests_total{endpoint="compile"} 3`,
		"# TYPE pool_active gauge",
		"pool_active 3",
		"pool_workers 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "request latency", []float64{0.1, 1, 10},
		Label{"endpoint", "tune"})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`latency_seconds_bucket{endpoint="tune",le="0.1"} 1`,
		`latency_seconds_bucket{endpoint="tune",le="1"} 3`,
		`latency_seconds_bucket{endpoint="tune",le="10"} 4`,
		`latency_seconds_bucket{endpoint="tune",le="+Inf"} 5`,
		`latency_seconds_sum{endpoint="tune"} 56.05`,
		`latency_seconds_count{endpoint="tune"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Max() != 50 || h.Sum() != 56.05 || h.Count() != 5 {
		t.Errorf("max %g sum %g count %d, want 50, 56.05 and 5", h.Max(), h.Sum(), h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	// 100 observations uniform in (0, 4]: quantiles interpolate.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if q := h.Quantile(0.5); math.Abs(q-2) > 0.2 {
		t.Errorf("p50 = %g, want ~2", q)
	}
	if q := h.Quantile(0.95); math.Abs(q-3.8) > 0.3 {
		t.Errorf("p95 = %g, want ~3.8", q)
	}
	// Tail observations beyond the last bound clamp to it.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 2 {
		t.Errorf("overflow quantile = %g, want 2 (last finite bound)", q)
	}
}

// TestHistogramQuantileEdgeCases pins the degenerate populations: no
// observations, one observation, every observation in one bucket, and
// everything past the last finite bound.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty: every quantile is 0.
	h := newHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}
	// Single sample: the median interpolates to the bucket midpoint-by-
	// rank (here exactly the sample), and q=1 reaches the bucket's upper
	// bound — the histogram cannot resolve further.
	h.Observe(1.5)
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("single-sample p50 = %g, want 1.5", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("single-sample p100 = %g, want 2 (bucket upper bound)", got)
	}
	// All observations in one bucket: every quantile stays inside that
	// bucket's bounds and the median lands on its midpoint.
	h2 := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h2.Observe(3)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h2.Quantile(q); got < 2 || got > 4 {
			t.Errorf("one-bucket Quantile(%g) = %g, want within (2, 4]", q, got)
		}
	}
	if got := h2.Quantile(0.5); got != 3 {
		t.Errorf("one-bucket p50 = %g, want 3", got)
	}
	// Overflow bucket: values beyond the last finite bound clamp to it.
	h3 := newHistogram([]float64{1, 2})
	h3.Observe(0.5)
	h3.Observe(100)
	h3.Observe(200)
	if got := h3.Quantile(0.99); got != 2 {
		t.Errorf("overflow p99 = %g, want 2 (last finite bound)", got)
	}
	if got := h3.Quantile(0.1); got > 1 {
		t.Errorf("overflow-heavy p10 = %g, want <= 1 (first bucket)", got)
	}
}

// TestExpositionParses validates the full output line-by-line against the
// text-format grammar, the same check the service e2e scrape test applies.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(7)
	r.Gauge("b", "b", Label{"x", `quote " and \ slash`}).Set(1.5)
	h := r.Histogram("c_seconds", "c", nil)
	h.Observe(0.003)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	validateExposition(t, buf.String())
}

// validateExposition asserts every line is a well-formed comment or
// sample, and every sample belongs to a declared family.
func validateExposition(t *testing.T, out string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$`)
	declared := map[string]string{}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition")
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("malformed comment: %q", line)
				continue
			}
			if parts[1] == "TYPE" {
				declared[parts[2]] = parts[3]
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if typ, ok := declared[strings.TrimSuffix(name, suffix)]; ok && typ == "histogram" {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := declared[base]; !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
		if _, err := strconv.ParseFloat(strings.Replace(m[3], "+Inf", "Inf", 1), 64); err != nil {
			t.Errorf("unparseable value in %q", line)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("ops_total", "ops", Label{"worker", fmt.Sprint(i % 2)}).Inc()
				r.Histogram("lat_seconds", "lat", nil).Observe(float64(j) * 1e-4)
			}
		}(i)
	}
	wg.Wait()
	total := r.Counter("ops_total", "ops", Label{"worker", "0"}).Value() +
		r.Counter("ops_total", "ops", Label{"worker", "1"}).Value()
	if total != 800 {
		t.Fatalf("ops = %d, want 800", total)
	}
	if n := r.Histogram("lat_seconds", "lat", nil).Count(); n != 800 {
		t.Fatalf("observations = %d, want 800", n)
	}
}

// TestConcurrentGaugesAndScrape races gauge writes, counter increments,
// GaugeFunc reads, and full expositions against each other — the shape
// of a live /metrics scrape during traffic (run under -race).
func TestConcurrentGaugesAndScrape(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	c := r.Counter("jobs_total", "jobs")
	r.GaugeFunc("inflight", "in-flight requests", func() float64 { return g.Value() })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				g.Add(1)
				c.Inc()
				g.Add(-1)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				r.WritePrometheus(&buf)
				if buf.Len() == 0 {
					t.Error("empty exposition during concurrent scrape")
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Fatalf("gauge = %g after balanced adds, want 0", v)
	}
	if v := c.Value(); v != 800 {
		t.Fatalf("counter = %d, want 800", v)
	}
}
