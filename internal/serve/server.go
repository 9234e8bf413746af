package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
)

// Config tunes the service.
type Config struct {
	// ModelsDir is the checkpoint directory the registry loads from.
	ModelsDir string
	// Workers is the number of rollout worker goroutines.
	Workers int
	// Queue is the bounded request-queue capacity; a full queue answers 503.
	Queue int
	// MaxModels bounds the number of resident checkpoints (LRU).
	MaxModels int
	// RequestTimeout is the server-side deadline for one schedule request.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies.
	MaxBodyBytes int64
	// Logger receives request-level diagnostics; nil disables logging.
	Logger *log.Logger
	// EnablePprof mounts net/http/pprof and GET /debug/runtime. Off by
	// default: profiling endpoints leak operational detail, so they must be
	// asked for (readys-serve -pprof).
	EnablePprof bool
	// TraceEvents is the request-span ring capacity (<= 0 picks the obs
	// default). Only the most recent window is kept, so tracing is always on
	// and bounded.
	TraceEvents int
}

// DefaultConfig returns production-shaped defaults sized to the host.
func DefaultConfig() Config {
	return Config{
		ModelsDir:      exp.DefaultModelsDir(),
		Workers:        runtime.GOMAXPROCS(0),
		Queue:          64,
		MaxModels:      8,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   1 << 20,
	}
}

// Server is the online scheduling service: registry + pool + metrics behind
// a stdlib net/http mux.
type Server struct {
	cfg      Config
	registry *Registry
	pool     *Pool
	metrics  *Metrics
	mux      *http.ServeMux

	// epoch anchors trace timestamps; tracer records per-request spans into
	// a bounded ring; reqSeq hands out request IDs.
	epoch  time.Time
	tracer *obs.Tracer
	reqSeq atomic.Int64
	build  obs.BuildInfo
}

// New builds a server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.ModelsDir == "" {
		cfg.ModelsDir = def.ModelsDir
	}
	if cfg.Workers < 1 {
		cfg.Workers = def.Workers
	}
	if cfg.Queue < 1 {
		cfg.Queue = def.Queue
	}
	if cfg.MaxModels < 1 {
		cfg.MaxModels = def.MaxModels
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	s := &Server{
		cfg: cfg,
		// Idle clones are capped at the worker count: more can never be in
		// flight at once, so anything beyond that would be dead weight.
		registry: NewRegistry(cfg.ModelsDir, cfg.MaxModels, cfg.Workers),
		pool:     NewPool(cfg.Workers, cfg.Queue),
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		epoch:    time.Now(),
		tracer:   obs.NewTracer(cfg.TraceEvents),
		build:    obs.ReadBuildInfo(),
	}
	s.tracer.NameProcess(servePID, "readys-serve")
	registerComponentGauges(s.metrics.Registry(), s.registry, s.pool)
	s.mux.HandleFunc("/v1/schedule", s.instrument("schedule", s.handleSchedule))
	s.mux.HandleFunc("/v1/models", s.instrument("models", s.handleModels))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	if cfg.EnablePprof {
		s.registerDebug()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (tests and the daemon's preloading).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the counter set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the worker pool: new schedule requests are refused with
// 503 while queued and in-flight rollouts run to completion (or ctx ends).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.pool.Shutdown(ctx)
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

// instrument wraps a handler with the in-flight gauge, per-endpoint
// request/error counters and latency histogram, a request ID (echoed in the
// X-Request-ID response header) and an overall request span on the request's
// trace lane.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.reqSeq.Add(1)
		w.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
		// Adopt the caller's trace (client→serve spans stitch into one
		// timeline) or start a fresh one; children parent to the request span.
		traceID, parentSpan, _ := obs.ExtractTraceContext(r.Header)
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		sc := obs.SpanContext{TraceID: traceID, SpanID: obs.NewSpanID()}
		w.Header().Set(obs.HeaderTraceID, traceID)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, reqInfo{id: id, sc: sc}))
		s.metrics.IncInflight()
		defer s.metrics.DecInflight()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.Observe(name, time.Since(start), sw.status >= 400)
		s.span("request", name, id, start, obs.SpanArgs(map[string]any{
			"request_id": id, "endpoint": name, "status": sw.status,
		}, sc.TraceID, sc.SpanID, parentSpan))
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf("serve: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         s.cfg.ModelsDir,
		"build":          s.build,
		"uptime_seconds": time.Since(s.epoch).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.WritePrometheus(w); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Printf("serve: writing prometheus metrics: %v", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.registry, s.pool))
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use GET"))
		return
	}
	models, err := s.registry.List()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ModelsResponse{Dir: s.registry.Dir(), Models: models})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: use POST"))
		return
	}
	var req ScheduleRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding request: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	graph, err := req.BuildGraph()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	kind, _ := req.kind() // validated above
	rid := requestID(r.Context())
	sc := traceContext(r.Context())

	acquireStart := time.Now()
	lease, cacheHit, err := s.registry.Acquire(kind, req.ModelT(), req.CPUs, req.GPUs)
	s.span("model_load", "registry", rid, acquireStart, childArgs(sc, map[string]any{"cache_hit": cacheHit}))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errModelNotFound) {
			status = http.StatusNotFound
		}
		s.writeError(w, status, err)
		return
	}

	prob := core.Problem{
		Graph:    graph,
		Platform: platform.New(req.CPUs, req.GPUs),
		Timing:   platform.TimingFor(kind),
		Sigma:    req.Sigma,
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var (
		resp   ScheduleResponse
		runErr error
	)
	enqueued := time.Now()
	err = s.pool.Do(ctx, func() {
		s.span("queue_wait", "pool", rid, enqueued, childArgs(sc, nil))
		defer lease.Release()
		resp, runErr = s.runSchedule(&req, prob, lease, cacheHit, rid, sc)
	})
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrShuttingDown) {
		// The pool rejected the job, so the closure (and its Release) never
		// runs: return the clone here or the next request re-clones.
		lease.Release()
	}
	switch {
	case errors.Is(err, ErrBusy):
		s.metrics.Rejected()
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrShuttingDown):
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Timeout()
		s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: request exceeded %s", s.cfg.RequestTimeout))
		return
	case err != nil: // client went away; the rollout finishes in background
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if runErr != nil {
		s.writeError(w, http.StatusInternalServerError, runErr)
		return
	}
	s.metrics.Scheduled()
	s.writeJSON(w, http.StatusOK, resp)
}

// runSchedule executes one policy rollout plus the two baseline references
// on a worker goroutine. The leased agent is exclusively ours for the
// duration, so the forward passes share no mutable state with other workers.
// The rollout, each inference decision and the reference schedules are
// recorded as spans on the request's trace lane.
func (s *Server) runSchedule(req *ScheduleRequest, prob core.Problem, lease *Lease, cacheHit bool, rid int64, sc obs.SpanContext) (ScheduleResponse, error) {
	start := time.Now()
	pol := tracedPolicy{inner: core.NewPolicy(lease.Agent()), srv: s, tid: rid, sc: sc}
	res, err := prob.Simulate(pol, rand.New(rand.NewSource(req.Seed)))
	s.span("rollout", "sim", rid, start, childArgs(sc, map[string]any{"tasks": prob.Graph.NumTasks(), "decisions": res.Decisions}))
	if err != nil {
		return ScheduleResponse{}, fmt.Errorf("serve: rollout: %w", err)
	}
	// Never hand out an infeasible plan: re-validate every schedule against
	// precedence and resource-exclusivity constraints before answering.
	if err := sim.ValidateResult(prob.Graph, prob.Platform.Size(), res); err != nil {
		return ScheduleResponse{}, fmt.Errorf("serve: produced invalid schedule: %w", err)
	}
	refStart := time.Now()
	heft := sched.HEFT(prob.Graph, prob.Platform, prob.Timing).Makespan
	mctRes, err := prob.Simulate(sched.MCTPolicy{}, rand.New(rand.NewSource(req.Seed)))
	s.span("references", "sim", rid, refStart, childArgs(sc, nil))
	if err != nil {
		return ScheduleResponse{}, fmt.Errorf("serve: MCT reference: %w", err)
	}

	resp := ScheduleResponse{
		Model:         lease.ModelName(),
		CacheHit:      cacheHit,
		Makespan:      res.Makespan,
		HEFTMakespan:  heft,
		MCTMakespan:   mctRes.Makespan,
		NumTasks:      prob.Graph.NumTasks(),
		Decisions:     res.Decisions,
		IdleDecisions: res.IdleDecisions,
		ElapsedMS:     float64(time.Since(start)) / float64(time.Millisecond),
	}
	if res.Makespan > 0 {
		resp.ImproveVsHEFT = heft / res.Makespan
		resp.ImproveVsMCT = mctRes.Makespan / res.Makespan
	}
	resp.Placements = make([]PlacementJSON, 0, len(res.Trace))
	for _, p := range res.Trace {
		resp.Placements = append(resp.Placements, PlacementJSON{
			Task:     p.Task,
			Name:     prob.Graph.Tasks[p.Task].Name,
			Resource: p.Resource,
			Type:     prob.Platform.Resources[p.Resource].Type.String(),
			Start:    p.Start,
			End:      p.End,
		})
	}
	return resp, nil
}
