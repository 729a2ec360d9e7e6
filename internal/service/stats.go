package service

import (
	"maps"
	"sync"
	"time"

	"grover/internal/kcache"
	"grover/internal/telemetry"
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

// PredictStats tallies predictive-autotuning outcomes: how often the
// feature store answered without measuring, and how the below-threshold
// predictions fared against the measurements that overrode them.
type PredictStats struct {
	// Requests counts predict-mode device-tunes that actually ran (cache
	// hits replay a stored verdict and consult no predictor).
	Requests int64 `json:"requests"`
	// Answered counts tunes served from the store without a timed run;
	// Exact of those came from an exact feature or request-key hit rather
	// than a nearest-neighbor prediction.
	Answered int64 `json:"answered"`
	Exact    int64 `json:"exact"`
	// Fallbacks counts tunes measured because the prediction's confidence
	// was below the threshold; FallbackCorrect of those had nonetheless
	// predicted the shape the measurement confirmed — the live accuracy
	// signal on the predictions the service did not trust.
	Fallbacks       int64 `json:"fallbacks"`
	FallbackCorrect int64 `json:"fallback_correct"`
	// Store is the feature store's occupancy and churn.
	Store kcache.DiskStats `json:"store"`
}

// registry collects EndpointStats keyed by endpoint name plus verdict and
// execution counts keyed by backend name, mirroring every tally into a
// telemetry registry so /v1/stats and /metrics are two views of one set
// of counters.
type registry struct {
	mu      sync.Mutex
	m       map[string]*EndpointStats
	hist    map[string]*telemetry.Histogram
	be      map[string]int64
	exec    map[string]int64
	predict PredictStats
	prom    *telemetry.Registry
}

func newRegistry(prom *telemetry.Registry) *registry {
	return &registry{
		m:    make(map[string]*EndpointStats),
		hist: make(map[string]*telemetry.Histogram),
		be:   make(map[string]int64),
		exec: make(map[string]int64),
		prom: prom,
	}
}

// recordBackend tallies the device verdicts computed on the named backend
// (cache hits replay a stored verdict and run nothing) and the kernel
// executions on the host they came from: one execution serves every
// device of a set.
func (r *registry) recordBackend(name string, verdicts, executions int64) {
	r.mu.Lock()
	r.be[name] += verdicts
	r.exec[name] += executions
	r.mu.Unlock()
	backend := telemetry.Label{Name: "backend", Value: name}
	r.prom.Counter("groverd_backend_runs_total",
		"autotune device verdicts computed per execution backend", backend).Add(verdicts)
	r.prom.Counter("groverd_host_executions_total",
		"kernel executions on the host per execution backend; one serves every device of a set",
		backend).Add(executions)
}

// recordPredict tallies one predict-mode device-tune outcome.
func (r *registry) recordPredict(answered, exact, correct bool) {
	r.mu.Lock()
	r.predict.Requests++
	if answered {
		r.predict.Answered++
		if exact {
			r.predict.Exact++
		}
	} else {
		r.predict.Fallbacks++
		if correct {
			r.predict.FallbackCorrect++
		}
	}
	r.mu.Unlock()
	r.prom.Counter("groverd_predict_requests_total",
		"predict-mode device-tunes served").Inc()
	if answered {
		r.prom.Counter("groverd_predict_answered_total",
			"device-tunes answered from the feature store without measuring").Inc()
		if exact {
			r.prom.Counter("groverd_predict_exact_total",
				"store answers from an exact feature or request-key hit").Inc()
		}
	} else {
		r.prom.Counter("groverd_predict_fallbacks_total",
			"predict-mode device-tunes that fell back to measurement").Inc()
		if correct {
			r.prom.Counter("groverd_predict_fallback_correct_total",
				"measured fallbacks whose untrusted prediction matched the measured winner").Inc()
		}
	}
}

// predictSnapshot copies the predict tallies (the caller fills in the
// live store stats).
func (r *registry) predictSnapshot() PredictStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.predict
}

// backendSnapshot copies the per-backend verdict and host-execution
// counts.
func (r *registry) backendSnapshot() (verdicts, executions map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.be), maps.Clone(r.exec)
}

// record tallies one request: its latency, whether it failed, and the
// cache outcomes it observed.
func (r *registry) record(endpoint string, d time.Duration, failed bool, outcomes ...kcache.Outcome) {
	ms := float64(d) / float64(time.Millisecond)
	ep := telemetry.Label{Name: "endpoint", Value: endpoint}
	r.prom.Counter("groverd_requests_total", "requests served per endpoint", ep).Inc()
	if failed {
		r.prom.Counter("groverd_request_errors_total", "requests answered with status >= 400", ep).Inc()
	}
	for _, o := range outcomes {
		r.prom.Counter("groverd_cache_outcomes_total", "artifact-cache outcomes observed by requests",
			ep, telemetry.Label{Name: "outcome", Value: o.String()}).Inc()
	}

	r.mu.Lock()
	st := r.m[endpoint]
	if st == nil {
		st = &EndpointStats{}
		r.m[endpoint] = st
	}
	h := r.hist[endpoint]
	if h == nil {
		h = r.prom.Histogram("groverd_request_duration_seconds",
			"request wall-clock latency per endpoint", nil, ep)
		r.hist[endpoint] = h
	}
	st.Requests++
	if failed {
		st.Errors++
	}
	st.TotalMS += ms
	if ms > st.MaxMS {
		st.MaxMS = ms
	}
	for _, o := range outcomes {
		switch o {
		case kcache.Hit:
			st.CacheHits++
		case kcache.Miss:
			st.CacheMisses++
		case kcache.Dedup:
			st.CacheDedups++
		}
	}
	r.mu.Unlock()
	h.Observe(float64(d) / float64(time.Second))
}

// snapshot copies the per-endpoint stats with derived averages and
// histogram quantiles.
func (r *registry) snapshot() map[string]EndpointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]EndpointStats, len(r.m))
	for k, st := range r.m {
		cp := *st
		if cp.Requests > 0 {
			cp.AvgMS = cp.TotalMS / float64(cp.Requests)
		}
		if h := r.hist[k]; h != nil {
			const sec = 1000 // histogram is in seconds, stats in ms
			cp.P50MS = h.Quantile(0.50) * sec
			cp.P95MS = h.Quantile(0.95) * sec
			cp.P99MS = h.Quantile(0.99) * sec
		}
		out[k] = cp
	}
	return out
}
