// Package gateway is the horizontal-scaling tier of the serving stack: a
// stateless router that fronts N readys-serve replicas behind one endpoint.
//
// Requests for one model are routed to the same replica (rendezvous hashing
// on the model's canonical spec hash), so each replica's LRU registry and
// clone free lists see a concentrated working set instead of a sliver of
// every model. Replicas are health-checked over their /healthz endpoint and
// failed over transparently: a replica dying mid-request surfaces as a
// retried request on a survivor, not a 5xx to the caller.
//
// The gateway records request and per-attempt forward spans into the same
// Chrome trace-event ring as the replicas and propagates X-Trace-ID /
// X-Parent-Span-ID on every hop, so a client→gateway→replica request renders
// as one stitched timeline (readys-obs-check -merge -links verifies the
// cross-process parent links).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"readys/internal/exp"
	"readys/internal/fleet"
	"readys/internal/obs"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// gatewayPID is the pid under which the gateway records trace events. It is
// distinct from the serving daemon's pid so merged multi-process traces keep
// one lane per process even before MergeTraces remaps collisions.
const gatewayPID = 2

// Config tunes the gateway.
type Config struct {
	// Replicas are the base URLs of the readys-serve replicas to front,
	// e.g. "http://127.0.0.1:8081". At least one is required.
	Replicas []string
	// HealthInterval is the period of the active /healthz probe loop.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe.
	HealthTimeout time.Duration
	// Retries is the number of failover attempts after the first forward
	// fails (capped at the replica count); zero takes the default.
	Retries int
	// RetryBase is the pre-jitter backoff before the first failover attempt,
	// doubling per attempt (fleet.BackoffDelay's curve).
	RetryBase time.Duration
	// RequestTimeout bounds one schedule request end to end, across every
	// failover attempt.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies.
	MaxBodyBytes int64
	// Logger receives request-level diagnostics; nil disables logging.
	Logger *log.Logger
	// TraceEvents is the request-span ring capacity (<= 0 picks the obs
	// default).
	TraceEvents int
}

// DefaultConfig returns production-shaped defaults (Replicas must still be
// supplied by the caller).
func DefaultConfig() Config {
	return Config{
		HealthInterval: 250 * time.Millisecond,
		HealthTimeout:  time.Second,
		Retries:        3,
		RetryBase:      25 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   1 << 20,
	}
}

// replica is one fronted readys-serve instance. healthy is optimistic: a
// fresh replica is assumed alive until a probe or a forward says otherwise,
// so the gateway serves immediately after start instead of waiting out the
// first probe cycle.
type replica struct {
	url     string
	healthy atomic.Bool
}

// Gateway routes schedule requests across replicas. Build with New, serve
// Handler(), stop the health loop with Close.
type Gateway struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	metrics  *Metrics
	mux      *http.ServeMux

	epoch  time.Time
	tracer *obs.Tracer
	reqSeq atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a gateway over the configured replicas (zero config fields take
// defaults) and starts its health-probe loop.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: at least one replica URL is required")
	}
	def := DefaultConfig()
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = def.HealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = def.HealthTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = def.Retries
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = def.RetryBase
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	g := &Gateway{
		cfg:     cfg,
		client:  &http.Client{Timeout: cfg.RequestTimeout},
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		epoch:   time.Now(),
		tracer:  obs.NewTracer(cfg.TraceEvents),
		stop:    make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		rep := &replica{url: u}
		rep.healthy.Store(true)
		g.replicas = append(g.replicas, rep)
		g.metrics.SetReplicaHealth(u, true)
	}
	if len(g.replicas) == 0 {
		return nil, errors.New("gateway: replica list is empty after normalisation")
	}
	g.tracer.NameProcess(gatewayPID, "readys-gateway")
	g.mux.HandleFunc("/v1/schedule", g.instrument("schedule", g.handleSchedule))
	g.mux.HandleFunc("/v1/models", g.instrument("models", g.handleModels))
	g.mux.HandleFunc("/healthz", g.instrument("healthz", g.handleHealthz))
	g.mux.HandleFunc("/metrics", g.instrument("metrics", g.handleMetrics))
	g.mux.HandleFunc("/debug/trace", g.handleTrace)
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the counter set.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Tracer exposes the gateway's span ring (tests and trace export).
func (g *Gateway) Tracer() *obs.Tracer { return g.tracer }

// Close stops the health-probe loop. In-flight requests are unaffected.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// healthLoop actively probes every replica's /healthz at the configured
// interval so replicas marked down by a failed forward recover without
// needing a risky live request, and replicas that died quietly are discovered
// before a request has to trip over them.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			for _, rep := range g.replicas {
				g.probe(rep)
			}
		}
	}
}

// probe checks one replica's liveness endpoint and updates its health state.
func (g *Gateway) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		g.setHealth(rep, false)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.setHealth(rep, false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	g.setHealth(rep, resp.StatusCode == http.StatusOK)
}

// setHealth records a replica health transition (state plus gauge, logged on
// change).
func (g *Gateway) setHealth(rep *replica, healthy bool) {
	was := rep.healthy.Swap(healthy)
	g.metrics.SetReplicaHealth(rep.url, healthy)
	if was != healthy && g.cfg.Logger != nil {
		state := "down"
		if healthy {
			state = "healthy"
		}
		g.cfg.Logger.Printf("gateway: replica %s is %s", rep.url, state)
	}
}

// routeKey is the rendezvous key of a schedule request: the canonical hash of
// the agent spec the replica's registry will serve it with. Requests for one
// model always land on one replica (while it is healthy), concentrating each
// replica's model cache on a stable working set.
func routeKey(req *serve.ScheduleRequest) string {
	kind, err := taskgraph.KindFromString(req.Kind)
	if err != nil {
		// Unroutable kinds are rejected by Validate before routing; this
		// fallback just keeps the key total.
		return "invalid|" + req.Kind
	}
	return exp.DefaultAgentSpec(kind, req.ModelT(), req.CPUs, req.GPUs).Hash()
}

// rank orders replicas for a key: healthy replicas in rendezvous order, then
// unhealthy ones (still in rendezvous order) as last-ditch candidates — a
// fully-down fleet is still tried rather than failed outright, which is what
// lets the first request after a full restart succeed before the next probe
// cycle. Rendezvous (highest-random-weight) hashing keeps the assignment
// stable under membership change: removing one replica only moves the keys
// that replica owned.
func (g *Gateway) rank(key string) []*replica {
	type scored struct {
		rep   *replica
		score string
	}
	all := make([]scored, 0, len(g.replicas))
	for _, rep := range g.replicas {
		all = append(all, scored{rep, exp.HashBytes([]byte(key + "|" + rep.url))})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	out := make([]*replica, 0, len(all))
	for _, s := range all {
		if s.rep.healthy.Load() {
			out = append(out, s.rep)
		}
	}
	for _, s := range all {
		if !s.rep.healthy.Load() {
			out = append(out, s.rep)
		}
	}
	return out
}

// RouteFor returns the URL of the replica a schedule request currently routes
// to: the rendezvous winner among healthy replicas. Exposed for operational
// debugging ("which replica owns this model?") and the smoke harness's
// targeted replica kill.
func (g *Gateway) RouteFor(req *serve.ScheduleRequest) string {
	return g.rank(routeKey(req))[0].url
}

// instrument wraps a handler with request counters, a request ID and an
// overall request span that adopts the caller's trace context (or starts a
// fresh trace), mirroring the serving daemon's instrumentation so gateway
// spans stitch into the same timeline.
func (g *Gateway) instrument(name string, h func(http.ResponseWriter, *http.Request, int64, obs.SpanContext)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := g.reqSeq.Add(1)
		w.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
		traceID, parentSpan, _ := obs.ExtractTraceContext(r.Header)
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		sc := obs.SpanContext{TraceID: traceID, SpanID: obs.NewSpanID()}
		w.Header().Set(obs.HeaderTraceID, traceID)
		g.metrics.ObserveRequest(name)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r, id, sc)
		if sw.status >= 400 {
			g.metrics.ObserveError(name)
		}
		g.span("request", name, id, start, obs.SpanArgs(map[string]any{
			"request_id": id, "endpoint": name, "status": sw.status,
		}, sc.TraceID, sc.SpanID, parentSpan))
	}
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// span records a completed slice on the request's lane.
func (g *Gateway) span(name, cat string, tid int64, start time.Time, args map[string]any) {
	ts := float64(start.Sub(g.epoch)) / float64(time.Microsecond)
	g.tracer.Complete(name, cat, gatewayPID, tid, ts,
		float64(time.Since(start))/float64(time.Microsecond), args)
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && g.cfg.Logger != nil {
		g.cfg.Logger.Printf("gateway: writing response: %v", err)
	}
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, err error) {
	g.writeJSON(w, status, serve.ErrorResponse{Error: err.Error()})
}

// forwardResult is one attempt's outcome.
type forwardResult struct {
	status int
	header http.Header
	body   []byte
}

// forward sends body to one replica's path. Each attempt carries its own span
// identity in the outbound trace headers, so the replica's request span
// becomes a child of this attempt's "forward" span — the cross-process link
// readys-obs-check -links resolves.
func (g *Gateway) forward(ctx context.Context, rep *replica, method, path string, body []byte, tid int64, sc obs.SpanContext) (forwardResult, error) {
	start := time.Now()
	attempt := obs.SpanContext{TraceID: sc.TraceID, SpanID: obs.NewSpanID()}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.url+path, rd)
	if err != nil {
		return forwardResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	attempt.Inject(req.Header)
	g.metrics.ObserveReplicaRequest(rep.url)
	res := forwardResult{}
	resp, err := g.client.Do(req)
	if err == nil {
		res.status = resp.StatusCode
		res.header = resp.Header
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	g.span("forward", "proxy", tid, start, obs.SpanArgs(map[string]any{
		"replica": rep.url, "path": path, "status": res.status,
	}, attempt.TraceID, attempt.SpanID, sc.SpanID))
	return res, err
}

// proxy forwards a request across the ranked candidates with jittered-backoff
// failover: transport errors and 5xx answers mark the replica down and move
// on; any other status is the application's answer and is relayed verbatim.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, method, path string, body []byte, candidates []*replica, tid int64, sc obs.SpanContext) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	attempts := g.cfg.Retries + 1
	if attempts > len(candidates) {
		attempts = len(candidates)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			g.metrics.Failover()
			select {
			case <-time.After(fleet.BackoffDelay(g.cfg.RetryBase, i)):
			case <-ctx.Done():
				g.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("gateway: request exceeded %s", g.cfg.RequestTimeout))
				return
			}
		}
		rep := candidates[i]
		res, err := g.forward(ctx, rep, method, path, body, tid, sc)
		if !fleet.Retriable(res.status, err) {
			// The replica answered (2xx..4xx): relay its response verbatim.
			if ct := res.header.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(res.status)
			w.Write(res.body)
			return
		}
		// Transport error or 5xx: the replica is suspect. Mark it down so
		// concurrent requests skip it until a health probe sees it recover.
		g.setHealth(rep, false)
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("replica %s answered %d", rep.url, res.status)
		}
		if g.cfg.Logger != nil {
			g.cfg.Logger.Printf("gateway: %s %s via %s failed (attempt %d/%d): %v", method, path, rep.url, i+1, attempts, lastErr)
		}
		if ctx.Err() != nil {
			break
		}
	}
	g.writeError(w, http.StatusBadGateway, fmt.Errorf("gateway: all %d candidate replicas failed: %w", attempts, lastErr))
}

// handleSchedule routes POST /v1/schedule by model identity and fails over
// on replica death.
func (g *Gateway) handleSchedule(w http.ResponseWriter, r *http.Request, tid int64, sc obs.SpanContext) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, errors.New("gateway: use POST"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("gateway: reading request: %w", err))
		return
	}
	var req serve.ScheduleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("gateway: decoding request: %w", err))
		return
	}
	// Validate before routing: malformed requests are answered here instead
	// of burning a replica round-trip (and a potential failover sequence) on
	// a request no replica could serve.
	if err := req.Validate(); err != nil {
		g.writeError(w, http.StatusBadRequest, err)
		return
	}
	g.proxy(w, r, http.MethodPost, "/v1/schedule", body, g.rank(routeKey(&req)), tid, sc)
}

// handleModels proxies GET /v1/models from any healthy replica. Replicas
// front the same checkpoint directory, so one answer represents the fleet.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request, tid int64, sc obs.SpanContext) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, errors.New("gateway: use GET"))
		return
	}
	g.proxy(w, r, http.MethodGet, "/v1/models", nil, g.rank("models"), tid, sc)
}

// handleHealthz reports the gateway's own liveness plus per-replica health.
// The gateway is "ok" while at least one replica is healthy; with none it
// answers 503 so a fronting load balancer can drain it.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request, tid int64, sc obs.SpanContext) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, errors.New("gateway: use GET"))
		return
	}
	reps := make(map[string]bool, len(g.replicas))
	anyHealthy := false
	for _, rep := range g.replicas {
		h := rep.healthy.Load()
		reps[rep.url] = h
		anyHealthy = anyHealthy || h
	}
	status := http.StatusOK
	state := "ok"
	if !anyHealthy {
		status = http.StatusServiceUnavailable
		state = "no healthy replicas"
	}
	g.writeJSON(w, status, map[string]any{
		"status":         state,
		"replicas":       reps,
		"uptime_seconds": time.Since(g.epoch).Seconds(),
	})
}

// handleMetrics serves the gateway's counters: Prometheus text exposition
// with ?format=prometheus, a JSON tree otherwise.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request, tid int64, sc obs.SpanContext) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, errors.New("gateway: use GET"))
		return
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := g.metrics.WritePrometheus(w); err != nil && g.cfg.Logger != nil {
			g.cfg.Logger.Printf("gateway: writing prometheus metrics: %v", err)
		}
		return
	}
	g.writeJSON(w, http.StatusOK, g.metrics.Snapshot())
}

// handleTrace exports the gateway's span ring as Chrome trace-event JSON.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, errors.New("gateway: use GET"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := g.tracer.WriteChromeTrace(w); err != nil && g.cfg.Logger != nil {
		g.cfg.Logger.Printf("gateway: writing trace: %v", err)
	}
}
