package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"readys/internal/gateway"
	"readys/internal/sched"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// testPortBase keeps the self-test's replicas off the benchmark's pinned
// ports, so the test can run beside a benchmark run.
const testPortBase = defaultPortBase + 100

// TestWorkloadsEmitDeclaredMetrics runs every workload at a small size, in
// both modes, and checks that the result carries exactly the metrics
// BENCHMARK.json declares for the mode, each with its declared unit and a
// positive value where the metric can never be 0.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, trace := range []bool{false, true} {
		specs, err := readManifest(filepath.Join("..", "BENCHMARK.json"), trace)
		if err != nil {
			t.Fatal(err)
		}
		for name := range workloads {
			res, err := execute(options{
				workload: name, seed: 7, seconds: 1, trace: trace,
				portBase: testPortBase, root: "..", size: 0.1,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, s.Name, m.Unit, s.Unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, s.Name, m.Value)
				}
			}
		}
	}
}

// validResponse schedules req's problem with MCT in process and returns the
// answer a replica would give for it.
func validResponse(t *testing.T, req request) serve.ScheduleResponse {
	t.Helper()
	prob := problemOf(req)
	res, err := prob.Simulate(sched.MCTPolicy{}, rand.New(rand.NewSource(req.req.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	resp := serve.ScheduleResponse{
		Model:        req.served().name(),
		Makespan:     res.Makespan,
		HEFTMakespan: sched.HEFT(prob.Graph, prob.Platform, prob.Timing).Makespan,
		NumTasks:     prob.Graph.NumTasks(),
	}
	for _, p := range res.Trace {
		resp.Placements = append(resp.Placements, serve.PlacementJSON{
			Task: p.Task, Resource: p.Resource, Type: prob.Platform.Resources[p.Resource].Type.String(),
			Start: p.Start, End: p.End,
		})
	}
	return resp
}

// overlap corrupts a schedule: one task is stretched to end halfway
// through the next task on its resource, picked so that no successor of the
// stretched task starts before its new end, which leaves the overlap as the
// schedule's only fault.
func overlap(t *testing.T, req request, resp *serve.ScheduleResponse) {
	t.Helper()
	g := problemOf(req).Graph
	start := map[int]float64{}
	byRes := map[int][]int{}
	for i, p := range resp.Placements {
		start[p.Task] = p.Start
		byRes[p.Resource] = append(byRes[p.Resource], i)
	}
	for _, idx := range byRes {
		sort.Slice(idx, func(a, b int) bool { return resp.Placements[idx[a]].Start < resp.Placements[idx[b]].Start })
	next:
		for k := 0; k+1 < len(idx); k++ {
			p, q := &resp.Placements[idx[k]], resp.Placements[idx[k+1]]
			end := (q.Start + q.End) / 2
			for _, succ := range g.Succ[p.Task] {
				if start[succ] < end {
					continue next
				}
			}
			p.End = end
			return
		}
	}
	t.Fatal("no task can be stretched over its neighbour alone")
}

// TestCorruptedScheduleCountsAsFailure serves one valid and one corrupted
// schedule through the path the workloads use and checks that only the
// corrupted one is counted as failed.
func TestCorruptedScheduleCountsAsFailure(t *testing.T) {
	req := newRequest(model{taskgraph.Cholesky, 4, 2, 2}, 4, 11)
	good := validResponse(t, req)
	bad := validResponse(t, req)
	overlap(t, req, &bad)
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()
	sm := &serveMix{st: &stack{client: srv.Client()}, check: newChecker([]model{req.m})}
	r := newRun(options{workload: "serve-mix"})

	var err error
	if body, err = json.Marshal(good); err != nil {
		t.Fatal(err)
	}
	if _, ok := sm.send(r, srv.URL, req, time.Now()); !ok || r.failed != 0 {
		t.Fatalf("valid schedule: ok=%v failed=%d %v", ok, r.failed, r.failures)
	}
	if body, err = json.Marshal(bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := sm.send(r, srv.URL, req, time.Now()); ok || r.failed != 1 || r.attempted != 2 {
		t.Fatalf("overlapping schedule: ok=%v attempted=%d failed=%d", ok, r.attempted, r.failed)
	}
	if !strings.Contains(r.failures[0], "concurrently") {
		t.Errorf("failure %q does not name the overlap", r.failures[0])
	}
}

// TestPinnedSplit checks that the pinned replica URLs split the 16
// checkpoints 8/8 with one of the two heaviest on each replica, as the
// port choice in stack.go promises. Routing depends only on the URLs, so
// the gateway needs no live replicas (and no health probe runs).
func TestPinnedSplit(t *testing.T) {
	var urls []string
	for i := 0; i < numReplicas; i++ {
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", defaultPortBase+i))
	}
	gw, err := gateway.New(gateway.Config{Replicas: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	owners := map[string][]string{}
	for _, m := range mixModels {
		req := newRequest(m, m.t, 0)
		url := gw.RouteFor(&req.req)
		owners[url] = append(owners[url], m.name())
	}
	if len(owners) != numReplicas {
		t.Fatalf("models land on %d replicas, want %d", len(owners), numReplicas)
	}
	for url, names := range owners {
		heavy := 0
		for _, n := range names {
			if strings.Contains(n, "lu_T8") || strings.Contains(n, "qr_T8") {
				heavy++
			}
		}
		if len(names) != 8 || heavy != 1 {
			t.Errorf("replica %s owns %d models, %d of LU/QR T8: %v", url, len(names), heavy, names)
		}
	}
}
