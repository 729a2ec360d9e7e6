package service

import (
	"time"

	"grover/internal/kcache"
	"grover/internal/telemetry"
	"grover/internal/vm"
)

// EndpointStats aggregates per-endpoint request metrics.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Cache outcome tallies across the endpoint's requests. An
	// autotune-all request contributes one tally per device.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheDedups int64 `json:"cache_dedups"`
	// Latency aggregates, in wall-clock milliseconds. The quantiles are
	// estimated from the endpoint's latency histogram (the same series
	// /metrics exposes), interpolated within the owning bucket.
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	MaxMS   float64 `json:"max_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// otherEndpoint is the "endpoint" label value of every path the mux does not
// route — a client chooses its paths, so they must not size the daemon's
// state — and that endpoint's key in Server.endpoints, where no routed path
// can collide with it (they start with a slash).
const otherEndpoint = "other"

// endpoint is one value of the "endpoint" label: its series, resolved once
// so a request does atomic adds and one histogram observation. /v1/stats
// reads the same series, so it and /metrics cannot disagree.
type endpoint struct {
	name     string
	requests *telemetry.Counter
	errors   *telemetry.Counter
	outcomes [3]*telemetry.Counter // by kcache.Outcome
	latency  *telemetry.Histogram
}

func newEndpoint(m *telemetry.Registry, name string) *endpoint {
	label := telemetry.Label{Name: "endpoint", Value: name}
	e := &endpoint{
		name:     name,
		requests: m.Counter("groverd_requests_total", "requests served per endpoint", label),
		errors:   m.Counter("groverd_request_errors_total", "requests answered with status >= 400", label),
		latency: m.Histogram("groverd_request_duration_seconds",
			"request wall-clock latency per endpoint", nil, label),
	}
	for _, o := range []kcache.Outcome{kcache.Miss, kcache.Hit, kcache.Dedup} {
		e.outcomes[o] = m.Counter("groverd_cache_outcomes_total", "artifact-cache outcomes observed by requests",
			label, telemetry.Label{Name: "outcome", Value: o.String()})
	}
	return e
}

// record tallies one finished request: its latency, whether it failed, and
// the cache outcomes it observed.
func (e *endpoint) record(d time.Duration, failed bool, outcomes []kcache.Outcome) {
	e.requests.Inc()
	if failed {
		e.errors.Inc()
	}
	for _, o := range outcomes {
		e.outcomes[o].Inc()
	}
	e.latency.Observe(d.Seconds())
}

// stats reads the endpoint's /v1/stats row off its series.
func (e *endpoint) stats() EndpointStats {
	const ms = 1000 // the histogram is in seconds
	st := EndpointStats{
		Requests:    e.requests.Value(),
		Errors:      e.errors.Value(),
		CacheHits:   e.outcomes[kcache.Hit].Value(),
		CacheMisses: e.outcomes[kcache.Miss].Value(),
		CacheDedups: e.outcomes[kcache.Dedup].Value(),
		TotalMS:     e.latency.Sum() * ms,
		MaxMS:       e.latency.Max() * ms,
		P50MS:       e.latency.Quantile(0.50) * ms,
		P95MS:       e.latency.Quantile(0.95) * ms,
		P99MS:       e.latency.Quantile(0.99) * ms,
	}
	if st.Requests > 0 {
		st.AvgMS = st.TotalMS / float64(st.Requests)
	}
	return st
}

// tuneCounters are the series autotune requests write besides their
// endpoint's: verdicts and host executions per backend. /v1/stats reads
// them back.
type tuneCounters struct {
	// verdicts and executions are keyed by backend name.
	verdicts, executions map[string]*telemetry.Counter
}

func newTuneCounters(m *telemetry.Registry) *tuneCounters {
	c := &tuneCounters{
		verdicts:   map[string]*telemetry.Counter{},
		executions: map[string]*telemetry.Counter{},
	}
	for _, name := range vm.Backends() {
		backend := telemetry.Label{Name: "backend", Value: name}
		c.verdicts[name] = m.Counter("groverd_backend_runs_total",
			"autotune device verdicts computed per execution backend", backend)
		c.executions[name] = m.Counter("groverd_host_executions_total",
			"kernel executions on the host per execution backend; one serves every device of a set", backend)
	}
	return c
}

// recordBackend tallies the device verdicts computed on the named backend
// (cache hits replay a stored verdict and run nothing) and the kernel
// executions on the host they came from: one execution serves every
// device of a set.
func (c *tuneCounters) recordBackend(name string, verdicts, executions int64) {
	c.verdicts[name].Add(verdicts)
	c.executions[name].Add(executions)
}

// backendStats reads the per-backend verdict and host-execution counts of
// the backends that have computed a verdict.
func (c *tuneCounters) backendStats() (verdicts, executions map[string]int64) {
	verdicts, executions = map[string]int64{}, map[string]int64{}
	for name, v := range c.verdicts {
		if n := v.Value(); n > 0 {
			verdicts[name], executions[name] = n, c.executions[name].Value()
		}
	}
	return verdicts, executions
}
