// readys-gateway fronts N readys-serve replicas behind one endpoint: it
// routes each schedule request to the replica that owns its model
// (rendezvous hashing on the canonical model-spec hash), health-checks the
// replicas and fails requests over transparently when a replica dies.
//
// Usage:
//
//	readys-gateway -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	readys-gateway -smoke -trace-out /tmp/gw   # in-process end-to-end check
//
// Endpoints:
//
//	POST /v1/schedule   route a scheduling request to its owning replica
//	GET  /v1/models     proxy the model listing from a healthy replica
//	GET  /healthz       gateway liveness + per-replica health
//	GET  /metrics       routing counters, per-replica health, failovers
//	                    (?format=prometheus for text exposition)
//	GET  /debug/trace   gateway request/forward spans as Chrome trace JSON
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/gateway"
	"readys/internal/obs"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

func main() {
	var (
		addr           = flag.String("addr", ":8090", "listen address")
		replicas       = flag.String("replicas", "", "comma-separated readys-serve base URLs (required unless -smoke)")
		healthInterval = flag.Duration("health-interval", 0, "replica /healthz probe period (0 = default)")
		retries        = flag.Int("retries", 0, "failover attempts after the first forward fails (0 = default)")
		timeout        = flag.Duration("timeout", 0, "per-request deadline across all failover attempts (0 = default)")
		smoke          = flag.Bool("smoke", false, "run an in-process gateway + 2 replicas end-to-end check and exit")
		traceOut       = flag.String("trace-out", "", "with -smoke: write client.json, gateway.json, replica1.json and replica2.json into this directory")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "readys-gateway: ", log.LstdFlags)

	if *smoke {
		if err := runSmoke(logger, *traceOut); err != nil {
			logger.Fatal(err)
		}
		fmt.Println("gateway smoke OK")
		return
	}

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		logger.Fatal("at least one replica is required: -replicas http://host:port[,...]")
	}
	gw, err := gateway.New(gateway.Config{
		Replicas:       urls,
		HealthInterval: *healthInterval,
		Retries:        *retries,
		RequestTimeout: *timeout,
		Logger:         logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("fronting %d replicas", len(urls))

	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, shutting down", sig)
		if err := httpSrv.Close(); err != nil {
			logger.Printf("http close: %v", err)
		}
		gw.Close()
		close(done)
	}()

	logger.Printf("listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
}

// smokeReplica is one in-process serving daemon on a real loopback listener.
type smokeReplica struct {
	srv  *serve.Server
	http *http.Server
	url  string
}

// runSmoke is the end-to-end check behind `make gateway-smoke`: a gateway
// over two replicas serving the same checkpoint, driven by a traced client.
// It proves (1) concurrent requests all succeed, (2) killing the replica that
// owns the model fails requests over to the survivor with bit-identical
// schedules, (3) the survivor counted the schedules it answered, and (4) the client → gateway → replica trace exports stitch into
// one linked timeline (the Makefile re-validates that with
// readys-obs-check -merge / -links).
func runSmoke(logger *log.Logger, traceOut string) error {
	dir, err := os.MkdirTemp("", "readys-gateway-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One untrained checkpoint shared by both replicas: untrained weights are
	// deterministically seeded, so the replicas must schedule identically.
	spec := exp.DefaultAgentSpec(taskgraph.Cholesky, 4, 1, 1)
	spec.Window, spec.Layers, spec.Hidden = 1, 1, 8
	if err := core.NewAgent(spec.AgentConfig()).SaveCheckpoint(spec.ModelPath(dir), map[string]string{"smoke": "1"}); err != nil {
		return err
	}

	var reps []*smokeReplica
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{
			ModelsDir: dir, Workers: 4, Queue: 64, RequestTimeout: 30 * time.Second,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		reps = append(reps, &smokeReplica{srv: srv, http: hs, url: "http://" + ln.Addr().String()})
	}
	defer func() {
		for _, r := range reps {
			r.http.Close()
		}
	}()

	// The health interval is pinned long so failover detection below is
	// purely passive (a failed forward), making the failover count
	// deterministic; the active prober has its own test coverage.
	gw, err := gateway.New(gateway.Config{
		Replicas:       []string{reps[0].url, reps[1].url},
		HealthInterval: time.Hour,
		Retries:        3,
		RetryBase:      5 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	// The "client process" keeps its own tracer; its root span context rides
	// every request, so gateway and replica spans all join its trace.
	clientTracer := obs.NewTracer(0)
	clientTracer.NameProcess(3, "smoke-client")
	client := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	clientStart := time.Now()

	httpClient := &http.Client{Timeout: 30 * time.Second}
	post := func(seed int64) (int, serve.ScheduleResponse, error) {
		body, _ := json.Marshal(serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1, Seed: seed})
		req, err := http.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		if err != nil {
			return 0, serve.ScheduleResponse{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		client.Inject(req.Header)
		// The gateway handler is driven in-process (no third listener to
		// manage); gateway → replica hops are real HTTP.
		rec := newRecorder()
		gw.Handler().ServeHTTP(rec, req)
		var resp serve.ScheduleResponse
		if rec.status == http.StatusOK {
			if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
				return rec.status, resp, err
			}
		}
		return rec.status, resp, nil
	}

	// Phase 1: concurrent requests with both replicas healthy.
	const clients = 8
	want := make([]serve.ScheduleResponse, clients)
	if err := burst(clients, post, func(i int, resp serve.ScheduleResponse) { want[i] = resp }); err != nil {
		return fmt.Errorf("phase 1 (both replicas up): %w", err)
	}

	// Phase 2: kill the replica that owns the model; every request must fail
	// over to the survivor and produce the same schedule as phase 1.
	owner := gw.RouteFor(&serve.ScheduleRequest{Kind: "cholesky", T: 4, CPUs: 1, GPUs: 1})
	var survivor *smokeReplica
	for _, r := range reps {
		if r.url == owner {
			r.http.Close()
			logger.Printf("smoke: killed owning replica %s", r.url)
		} else {
			survivor = r
		}
	}
	got := make([]serve.ScheduleResponse, clients)
	if err := burst(clients, post, func(i int, resp serve.ScheduleResponse) { got[i] = resp }); err != nil {
		return fmt.Errorf("phase 2 (owner killed): %w", err)
	}
	for i := range got {
		if got[i].Makespan != want[i].Makespan || got[i].Decisions != want[i].Decisions {
			return fmt.Errorf("smoke: seed %d diverged after failover: makespan %v/%d decisions vs %v/%d",
				i, got[i].Makespan, got[i].Decisions, want[i].Makespan, want[i].Decisions)
		}
	}
	if gw.Metrics().Failovers() == 0 {
		return errors.New("smoke: owning replica died but no failover was recorded")
	}

	// Phase 3: the survivor's metrics must count the failed-over schedules.
	mr, err := httpClient.Get(survivor.url + "/metrics?format=prometheus")
	if err != nil {
		return err
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !hasPositiveSample(string(mbody), "readys_schedules_answered_total") {
		return errors.New("smoke: survivor answered no schedules (readys_schedules_answered_total is 0)")
	}

	// Phase 4: export every process's trace for the cross-process link check.
	clientTracer.Complete("smoke-run", "client", 3, 1, 0,
		float64(time.Since(clientStart))/float64(time.Microsecond),
		obs.SpanArgs(nil, client.TraceID, client.SpanID, ""))
	if traceOut != "" {
		if err := os.MkdirAll(traceOut, 0o755); err != nil {
			return err
		}
		writeTrace := func(name string, wt func(io.Writer) error) error {
			f, err := os.Create(filepath.Join(traceOut, name))
			if err != nil {
				return err
			}
			if err := wt(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		if err := writeTrace("client.json", clientTracer.WriteChromeTrace); err != nil {
			return err
		}
		if err := writeTrace("gateway.json", gw.Tracer().WriteChromeTrace); err != nil {
			return err
		}
		for i, r := range reps {
			// The dead replica's listener is gone but its handler still
			// works in-process, so its spans are exported too.
			rec := newRecorder()
			r.srv.Handler().ServeHTTP(rec, mustRequest(http.MethodGet, "/debug/trace"))
			if rec.status != http.StatusOK {
				return fmt.Errorf("replica %d trace export: status %d", i+1, rec.status)
			}
			name := fmt.Sprintf("replica%d.json", i+1)
			if err := os.WriteFile(filepath.Join(traceOut, name), rec.body.Bytes(), 0o644); err != nil {
				return err
			}
		}
		logger.Printf("smoke: traces written to %s", traceOut)
	}
	return nil
}

// burst runs n concurrent schedule requests and hands each 200 response to
// check; any non-200 fails the burst.
func burst(n int, post func(int64) (int, serve.ScheduleResponse, error), check func(int, serve.ScheduleResponse)) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, err := post(int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("seed %d: status %d", i, status)
				return
			}
			check(i, resp)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// recorder is a minimal in-process http.ResponseWriter (no httptest import in
// a shipped binary).
type recorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header), status: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func mustRequest(method, path string) *http.Request {
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		panic(err)
	}
	return req
}

// hasPositiveSample reports whether an unlabelled Prometheus sample line for
// name carries a value > 0.
func hasPositiveSample(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		return rest != "0" && rest != "0.0"
	}
	return false
}
