package serve

import (
	"io"
	"runtime"
	"strconv"
	"time"

	"readys/internal/obs"
)

// latencyBucketsMS are the upper bounds (in milliseconds) of the latency
// histogram buckets, chosen around the observed cost of one warm rollout
// (sub-millisecond model access, tens of ms of simulation on larger DAGs).
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// decideBucketsUS are the upper bounds (in microseconds) of the per-decision
// inference latency histogram. The serving hot path targets sub-100µs
// decisions, so the resolution is concentrated there: the 5–100µs buckets
// resolve incremental decisions, the tail catches cold starts and full
// rebuilds.
var decideBucketsUS = []float64{5, 10, 25, 50, 100, 250, 1000, 10000}

// Metrics is the service's counter set, backed by the shared obs registry.
// GET /metrics serves it as JSON (the historical expvar-style tree) or, with
// ?format=prometheus, as Prometheus text exposition. All methods are safe
// for concurrent use.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	requests *obs.CounterVec
	errors   *obs.CounterVec
	latency  *obs.HistogramVec
	decide   *obs.Histogram

	inflight  *obs.Gauge
	rejected  *obs.Counter // 503s from a full queue
	timeouts  *obs.Counter // requests that hit the server-side deadline
	scheduled *obs.Counter // successfully answered schedule requests
}

// NewMetrics returns an empty metric set anchored at now. Runtime gauges
// (uptime, goroutines, heap) are registered for the Prometheus exposition.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		start:     time.Now(),
		reg:       reg,
		requests:  reg.CounterVec("readys_http_requests_total", "HTTP requests by endpoint.", "endpoint"),
		errors:    reg.CounterVec("readys_http_errors_total", "HTTP responses with status >= 400 by endpoint.", "endpoint"),
		latency:   reg.HistogramVec("readys_http_latency_ms", "Request latency in milliseconds by endpoint.", latencyBucketsMS, "endpoint"),
		decide:    reg.Histogram("readys_decide_latency_us", "Per-decision inference latency in microseconds.", decideBucketsUS),
		inflight:  reg.Gauge("readys_http_inflight", "Requests currently being handled."),
		rejected:  reg.Counter("readys_rejected_busy_total", "Backpressure rejections from a full queue (503)."),
		timeouts:  reg.Counter("readys_request_timeouts_total", "Requests that exceeded the server-side deadline."),
		scheduled: reg.Counter("readys_schedules_answered_total", "Successfully answered schedule requests."),
	}
	reg.GaugeFunc("readys_uptime_seconds", "Seconds since the metric set was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("readys_goroutines", "Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("readys_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	return m
}

// Registry exposes the underlying obs registry so the server can attach
// component gauges (model cache, pool depth) without Metrics depending on
// those components.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Observe records one finished request against an endpoint.
func (m *Metrics) Observe(endpoint string, d time.Duration, isError bool) {
	m.requests.With(endpoint).Inc()
	e := m.errors.With(endpoint) // materialise the series even at zero
	if isError {
		e.Inc()
	}
	m.latency.With(endpoint).Observe(float64(d) / float64(time.Millisecond))
}

// ObserveDecide records the wall-clock latency of one scheduling decision.
func (m *Metrics) ObserveDecide(d time.Duration) {
	m.decide.Observe(float64(d) / float64(time.Microsecond))
}

// IncInflight / DecInflight track requests currently being handled.
func (m *Metrics) IncInflight() { m.inflight.Add(1) }
func (m *Metrics) DecInflight() { m.inflight.Add(-1) }

// Rejected counts a backpressure rejection (full queue).
func (m *Metrics) Rejected() { m.rejected.Inc() }

// Timeout counts a request that exceeded the server-side deadline.
func (m *Metrics) Timeout() { m.timeouts.Inc() }

// Scheduled counts a successfully served schedule request.
func (m *Metrics) Scheduled() { m.scheduled.Inc() }

// WritePrometheus renders every metric in the Prometheus text exposition
// format (served on GET /metrics?format=prometheus).
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WriteText(w) }

// Snapshot renders every counter as a JSON-encodable tree — the same shape
// the endpoint served before the obs refactor, so dashboards keep working.
// The registry and pool gauges are passed in by the server so Metrics stays
// free of dependencies on the other components.
func (m *Metrics) Snapshot(registry *Registry, pool *Pool) map[string]any {
	out := map[string]any{
		"uptime_seconds":     time.Since(m.start).Seconds(),
		"inflight":           m.inflight.Value(),
		"rejected_busy":      m.rejected.Value(),
		"request_timeouts":   m.timeouts.Value(),
		"schedules_answered": m.scheduled.Value(),
	}

	eps := make(map[string]any)
	for _, labels := range m.requests.Labels() {
		name := labels[0]
		eps[name] = map[string]any{
			"requests": m.requests.With(name).Value(),
			"errors":   m.errors.With(name).Value(),
			"latency":  latencyTree(m.latency.With(name).Snapshot()),
		}
	}
	out["endpoints"] = eps

	if registry != nil {
		resident, hits, misses, evicted := registry.Stats()
		var hitRate float64
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		out["model_cache"] = map[string]any{
			"resident": resident,
			"hits":     hits,
			"misses":   misses,
			"evicted":  evicted,
			"hit_rate": hitRate,
		}
	}
	if pool != nil {
		out["pool"] = map[string]any{
			"queued":  pool.Queued(),
			"running": pool.Running(),
		}
	}
	return out
}

// latencyTree converts a histogram snapshot into the JSON-friendly map the
// endpoint has always served: cumulative bucket counts keyed by
// "le_<bound>", plus count/sum/mean.
func latencyTree(s obs.HistogramSnapshot) map[string]any {
	buckets := make(map[string]uint64, len(s.Counts))
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		// Bounds are integral milliseconds; print without a decimal point.
		buckets["le_"+strconv.FormatInt(int64(bound), 10)] = cum
	}
	cum += s.Counts[len(s.Bounds)]
	buckets["le_inf"] = cum
	out := map[string]any{
		"count":      s.Count,
		"sum_ms":     s.Sum,
		"buckets_ms": buckets,
	}
	if s.Count > 0 {
		out["mean_ms"] = s.Sum / float64(s.Count)
	}
	return out
}
