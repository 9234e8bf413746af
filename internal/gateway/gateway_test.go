package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// writeTestModel saves an untrained checkpoint for the (kind, T, platform)
// combination into dir. Untrained weights are deterministically seeded, so
// two replicas loading the same file schedule identically — the property the
// failover tests lean on.
func writeTestModel(t testing.TB, dir string, kind taskgraph.Kind, T, cpus, gpus int) {
	t.Helper()
	spec := exp.DefaultAgentSpec(kind, T, cpus, gpus)
	spec.Window, spec.Layers, spec.Hidden = 1, 1, 8
	agent := core.NewAgent(spec.AgentConfig())
	if err := agent.SaveCheckpoint(spec.ModelPath(dir), map[string]string{"test": "1"}); err != nil {
		t.Fatal(err)
	}
}

// startReplica runs one serving daemon over dir behind an httptest listener.
func startReplica(t testing.TB, dir string) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{
		ModelsDir: dir, Workers: 2, Queue: 32, RequestTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newTestGateway builds a gateway over the given replica URLs with the active
// health prober effectively disabled, so tests exercise the passive
// (failed-forward) detection path deterministically.
func newTestGateway(t testing.TB, urls ...string) *Gateway {
	t.Helper()
	g, err := New(Config{
		Replicas:       urls,
		HealthInterval: time.Hour,
		Retries:        3,
		RetryBase:      time.Millisecond,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func postJSON(t testing.TB, h http.Handler, path string, v any, hdr http.Header) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for k, vals := range hdr {
		for _, val := range vals {
			req.Header.Add(k, val)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeSchedule(t testing.TB, rec *httptest.ResponseRecorder) serve.ScheduleResponse {
	t.Helper()
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding schedule response: %v\n%s", err, rec.Body.String())
	}
	return resp
}

// sameSchedule compares the deterministic parts of two schedule responses
// (ElapsedMS and CacheHit legitimately differ between replicas).
func sameSchedule(t testing.TB, ctx string, got, want serve.ScheduleResponse) {
	t.Helper()
	if got.Makespan != want.Makespan || got.Decisions != want.Decisions || got.IdleDecisions != want.IdleDecisions {
		t.Errorf("%s: makespan/decisions diverged: got %v/%d/%d, want %v/%d/%d",
			ctx, got.Makespan, got.Decisions, got.IdleDecisions, want.Makespan, want.Decisions, want.IdleDecisions)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%s: %d placements, want %d", ctx, len(got.Placements), len(want.Placements))
	}
	for i := range got.Placements {
		if got.Placements[i] != want.Placements[i] {
			t.Errorf("%s: placement %d: got %+v, want %+v", ctx, i, got.Placements[i], want.Placements[i])
		}
	}
}

// TestRankDeterministicAndOrderFree pins the rendezvous-routing contract:
// the ranking for a key does not depend on the order replicas were listed
// in, and different keys spread across replicas.
func TestRankDeterministicAndOrderFree(t *testing.T) {
	urls := []string{"http://10.0.0.1:8081", "http://10.0.0.2:8081", "http://10.0.0.3:8081"}
	g1 := newTestGateway(t, urls[0], urls[1], urls[2])
	g2 := newTestGateway(t, urls[2], urls[0], urls[1])

	keys := []string{"model-a", "model-b", "model-c", "model-d", "model-e"}
	first := make(map[string]bool)
	for _, key := range keys {
		r1, r2 := g1.rank(key), g2.rank(key)
		if len(r1) != len(urls) || len(r2) != len(urls) {
			t.Fatalf("rank(%q) returned %d and %d replicas, want %d", key, len(r1), len(r2), len(urls))
		}
		for i := range r1 {
			if r1[i].url != r2[i].url {
				t.Fatalf("rank(%q) depends on listing order: %s vs %s at position %d", key, r1[i].url, r2[i].url, i)
			}
		}
		first[r1[0].url] = true
	}
	if len(first) < 2 {
		t.Errorf("5 keys all ranked the same replica first; rendezvous hashing should spread them")
	}

	// An unhealthy replica drops behind every healthy one but stays a
	// candidate of last resort.
	target := g1.rank("model-a")[0]
	target.healthy.Store(false)
	ranked := g1.rank("model-a")
	if ranked[0] == target {
		t.Fatal("unhealthy replica still ranked first")
	}
	if ranked[len(ranked)-1] != target {
		t.Fatal("unhealthy replica dropped from the candidate list entirely")
	}
	target.healthy.Store(true)
}

// TestGatewayFailoverChaos kills the replica that owns a key while requests
// are in flight and requires every request to complete on the survivor with
// a bit-identical schedule — replica death must never surface as a 5xx.
func TestGatewayFailoverChaos(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 4, 1, 1)
	rep1 := startReplica(t, dir)
	rep2 := startReplica(t, dir)
	g := newTestGateway(t, rep1.URL, rep2.URL)

	req := serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Seed: 42}

	// Reference answer while both replicas are up.
	rec := postJSON(t, g.Handler(), "/v1/schedule", req, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up request: status %d: %s", rec.Code, rec.Body.String())
	}
	want := decodeSchedule(t, rec)

	// Kill the replica that owns this request's route, so the very next
	// request must fail over. CloseClientConnections drops keep-alive
	// connections too, making in-flight forwards fail like a crashed process.
	owner := g.rank(routeKey(&req))[0].url
	for _, ts := range []*httptest.Server{rep1, rep2} {
		if ts.URL == owner {
			ts.CloseClientConnections()
			ts.Close()
		}
	}

	const clients = 8
	codes := make([]int, clients)
	resps := make([]serve.ScheduleResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := postJSON(t, g.Handler(), "/v1/schedule", req, nil)
			codes[i] = r.Code
			if r.Code == http.StatusOK {
				resps[i] = decodeSchedule(t, r)
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d after replica death: status %d", i, codes[i])
		}
		sameSchedule(t, "survivor response", resps[i], want)
	}
	if g.Metrics().Failovers() == 0 {
		t.Error("no failover recorded despite the owning replica dying")
	}

	// The dead replica must be marked down in the health gauge and in
	// /healthz, while the gateway itself stays serving.
	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `readys_gateway_replica_healthy{replica="`+owner+`"} 0`) {
		t.Errorf("dead replica %s not marked down in exposition:\n%s", owner, body)
	}
	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("gateway /healthz answered %d with one live replica", rec.Code)
	}
}

// TestGatewayAllReplicasDown pins the exhaustion path: with every replica
// dead the gateway answers 502 (not a hang) and its own /healthz turns 503.
func TestGatewayAllReplicasDown(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	rep := startReplica(t, dir)
	g := newTestGateway(t, rep.URL)
	rep.CloseClientConnections()
	rep.Close()

	req := serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: 1}
	rec := postJSON(t, g.Handler(), "/v1/schedule", req, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d with all replicas down, want 502: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gateway /healthz answered %d with zero live replicas, want 503", rec.Code)
	}
}

// TestGatewayBadRequestNotRetried pins the 4xx contract: application answers
// are relayed verbatim and never counted or retried as failures.
func TestGatewayBadRequestNotRetried(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	rep := startReplica(t, dir)
	g := newTestGateway(t, rep.URL)

	// Invalid at the gateway: rejected before any forward.
	rec := postJSON(t, g.Handler(), "/v1/schedule", serve.ScheduleRequest{Kind: "nope", T: 2, CPUs: 1}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid kind: status %d, want 400", rec.Code)
	}
	// Valid shape but no such model: the replica's 404 comes through as-is.
	rec = postJSON(t, g.Handler(), "/v1/schedule", serve.ScheduleRequest{Kind: "qr", T: 9, CPUs: 1, GPUs: 1}, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing model: status %d, want 404: %s", rec.Code, rec.Body.String())
	}
	if n := g.Metrics().Failovers(); n != 0 {
		t.Errorf("4xx answers triggered %d failovers, want 0", n)
	}
}

// TestGatewayTraceLinks posts a request with a client trace context, merges
// the client, gateway and replica trace exports and requires every parent
// link to resolve — the stitched client→gateway→replica timeline the
// gateway-smoke target checks end to end.
func TestGatewayTraceLinks(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	srv := serve.New(serve.Config{ModelsDir: dir, Workers: 2, Queue: 16, RequestTimeout: 30 * time.Second})
	rep := httptest.NewServer(srv.Handler())
	t.Cleanup(rep.Close)
	g := newTestGateway(t, rep.URL)

	// The "client process": one root span whose context rides the request.
	clientTracer := obs.NewTracer(0)
	clientTracer.NameProcess(3, "client")
	client := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	hdr := http.Header{}
	client.Inject(hdr)
	start := time.Now()
	rec := postJSON(t, g.Handler(), "/v1/schedule",
		serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: 7}, hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule via gateway: status %d: %s", rec.Code, rec.Body.String())
	}
	clientTracer.Complete("request", "client", 3, 1, 0,
		float64(time.Since(start))/float64(time.Microsecond),
		obs.SpanArgs(nil, client.TraceID, client.SpanID, ""))

	export := func(tr *obs.Tracer) []byte {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var replicaTrace bytes.Buffer
	resp := httptest.NewRecorder()
	srv.Handler().ServeHTTP(resp, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	replicaTrace.Write(resp.Body.Bytes())

	merged, err := obs.MergeTraces(export(clientTracer), export(g.Tracer()), replicaTrace.Bytes())
	if err != nil {
		t.Fatalf("merging traces: %v", err)
	}
	if err := obs.ValidateChromeTrace(merged); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if err := obs.ValidateTraceLinks(merged); err != nil {
		t.Fatalf("trace links broken across client→gateway→replica: %v", err)
	}
}

// TestHealthProbeRecovery exercises the active prober both ways: a replica
// whose /healthz starts failing is marked down without any request tripping
// over it, and marked healthy again once the endpoint recovers — the path
// that brings a restarted replica back into rotation.
func TestHealthProbeRecovery(t *testing.T) {
	var failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)

	g, err := New(Config{
		Replicas:       []string{ts.URL},
		HealthInterval: 5 * time.Millisecond,
		HealthTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if g.replicas[0].healthy.Load() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("replica health never became %v", want)
	}

	waitHealth(true)
	failing.Store(true)
	waitHealth(false)
	failing.Store(false)
	waitHealth(true)
}

// TestGatewayMetricsPrometheusFormat is the golden exposition test for the
// gateway's metric families.
func TestGatewayMetricsPrometheusFormat(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, taskgraph.Cholesky, 2, 1, 1)
	rep := startReplica(t, dir)
	g := newTestGateway(t, rep.URL)

	rec := postJSON(t, g.Handler(), "/v1/schedule",
		serve.ScheduleRequest{Kind: "cholesky", T: 2, CPUs: 1, GPUs: 1, Seed: 3}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()
	for _, line := range []string{
		"# TYPE readys_gateway_requests_total counter",
		`readys_gateway_requests_total{endpoint="schedule"} 1`,
		"# TYPE readys_gateway_replica_requests_total counter",
		`readys_gateway_replica_requests_total{replica="` + rep.URL + `"} 1`,
		"# TYPE readys_gateway_replica_healthy gauge",
		`readys_gateway_replica_healthy{replica="` + rep.URL + `"} 1`,
		"# TYPE readys_gateway_failovers_total counter",
		"readys_gateway_failovers_total 0",
		"# TYPE readys_gateway_uptime_seconds gauge",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("prometheus exposition missing %q\n%s", line, body)
		}
	}
}
