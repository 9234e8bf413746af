package main

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/serve"
	"readys/internal/taskgraph"
)

// mixModels are the 16 committed single-DAG checkpoints the serve-mix
// workload draws from: Cholesky T2–T8 on every shipped platform and LU/QR
// T2/T4/T8 on 2 CPUs + 2 GPUs.
var mixModels = []model{
	{taskgraph.Cholesky, 2, 2, 2},
	{taskgraph.Cholesky, 4, 0, 4}, {taskgraph.Cholesky, 4, 2, 2}, {taskgraph.Cholesky, 4, 4, 0},
	{taskgraph.Cholesky, 6, 0, 4}, {taskgraph.Cholesky, 6, 2, 2}, {taskgraph.Cholesky, 6, 4, 0},
	{taskgraph.Cholesky, 8, 0, 4}, {taskgraph.Cholesky, 8, 2, 2}, {taskgraph.Cholesky, 8, 4, 0},
	{taskgraph.LU, 2, 2, 2}, {taskgraph.LU, 4, 2, 2}, {taskgraph.LU, 8, 2, 2},
	{taskgraph.QR, 2, 2, 2}, {taskgraph.QR, 4, 2, 2}, {taskgraph.QR, 8, 2, 2},
}

const (
	// mixSigma is the duration-noise level of every serve-mix request.
	mixSigma = 0.1
	// mixRate is the traced run's open-loop arrival rate in requests per
	// second, about a third of the mix's capacity on a 2-vCPU machine.
	mixRate = 60.0
	// mixLatencyShare is the share of --seconds spent measuring latency
	// with one caller; the rest measures capacity.
	mixLatencyShare = 0.35
	// mixRequests bounds the generated request sequence; the closed loop
	// wraps around it if it runs out.
	mixRequests = 20000
	// setupRepeats is how many times a workload sets up per run; setup_s is
	// the median.
	setupRepeats = 5
	// ledgerOpenShare is the share of --seconds a traced run spends in its
	// open loop.
	ledgerOpenShare = 0.2
	// ledgerMixBlocks is the number of mix blocks a serve-mix traced run
	// replays and probes request by request.
	ledgerMixBlocks = 4
	// ledgerRLBatches is the number of A2C batches a traced run trains in
	// its rl probe.
	ledgerRLBatches = 2
)

// request is one generated /v1/schedule call: the DAG m (family, tile
// count, platform), scheduled by the checkpoint trained at tile count
// trainT (the paper's transfer setting when it differs from m.t).
type request struct {
	m      model
	trainT int
	req    serve.ScheduleRequest
	body   []byte
}

func newRequest(m model, trainT int, seed int64) request {
	req := serve.ScheduleRequest{Kind: m.kind.String(), T: m.t, CPUs: m.cpus, GPUs: m.gpus, Sigma: mixSigma, Seed: seed}
	if trainT != m.t {
		req.TrainT = trainT
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of scalars always marshals
	}
	return request{m: m, trainT: trainT, req: req, body: body}
}

// served is the checkpoint that answers the request.
func (q request) served() model { return model{q.m.kind, q.trainT, q.m.cpus, q.m.gpus} }

// mixBlock is one block of the serve-mix request sequence: each LU and QR
// checkpoint four times, each Cholesky T2 and T6 checkpoint twice and each
// Cholesky T4 and T8 checkpoint once, 38 requests. The weights place the
// latency median, which must not sit between two classes of different cost
// or it jumps between them from run to run. A flat draw over the 16
// checkpoints puts it between the cheap (T2/T4) and the expensive (T6/T8)
// checkpoints; equal family shares put it between QR T4 and LU T4, which is
// a third slower. This block puts it in the middle of the LU T4 requests, a
// twentieth of the block away from either neighbouring class.
func mixBlock() []model {
	var b []model
	for _, m := range mixModels {
		switch {
		case m.kind == taskgraph.Cholesky && (m.t == 2 || m.t == 6):
			b = append(b, m, m)
		case m.kind == taskgraph.Cholesky:
			b = append(b, m)
		default:
			b = append(b, m, m, m, m)
		}
	}
	return b
}

// mixInputs generates the serve-mix request sequence and open-loop arrival
// offsets from the workload seed: whole blocks in seeded order, so every
// run sends the same mix, and Poisson arrivals at rate.
func mixInputs(seed int64, n int, rate float64, openFor time.Duration) ([]request, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	block := mixBlock()
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		for _, i := range rng.Perm(len(block)) {
			reqs = append(reqs, newRequest(block[i], block[i].t, rng.Int63()))
		}
	}
	arrivals := rand.New(rand.NewSource(seed ^ 0x5eed))
	var offsets []time.Duration
	for at := 0.0; ; {
		at += arrivals.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= openFor || len(offsets) == n {
			break
		}
		offsets = append(offsets, d)
	}
	return reqs, offsets
}

// serveMix is a started serving stack with its generated inputs.
type serveMix struct {
	st      *stack
	check   *checker
	reqs    []request
	offsets []time.Duration

	mu     sync.Mutex
	ratios []float64 // HEFT/READYS makespan of each answered request
	hits   int       // answers with cache_hit set
	seen   int       // answers checked
}

// setUpServing starts the stack, builds the reference problems of the
// requests' DAGs and sends one warm-up request per distinct DAG through the
// gateway, so every checkpoint the requests need has been loaded once
// before timing starts.
func setUpServing(r *run, reqs []request, offsets []time.Duration) (*serveMix, error) {
	st, err := startStack(r.opt.root, r.opt.portBase)
	if err != nil {
		return nil, err
	}
	trainT := map[model]int{}
	var models []model
	for _, req := range reqs {
		if _, ok := trainT[req.m]; !ok {
			trainT[req.m] = req.trainT
			models = append(models, req.m)
		}
	}
	sm := &serveMix{st: st, check: newChecker(models), reqs: reqs, offsets: offsets}
	for _, m := range models {
		sm.send(r, st.gwL.url, newRequest(m, trainT[m], -1), time.Now())
	}
	sm.ratios, sm.hits, sm.seen = nil, 0, 0
	return sm, nil
}

func (sm *serveMix) close() { sm.st.close() }

// answer is the outcome of one checked request.
type answer struct {
	lat  time.Duration // from due to the last response byte
	resp serve.ScheduleResponse
	size int // response body bytes
}

// send posts one request to url and checks the answer; the check itself is
// not timed. Failed or invalid answers are counted and return ok false.
func (sm *serveMix) send(r *run, url string, req request, due time.Time) (answer, bool) {
	status, body, err := sm.st.post(url, req.body)
	a := answer{lat: time.Since(due), size: len(body)}
	r.attempt(1)
	if err != nil {
		r.fail("%s: %v", req.m.name(), err)
		return a, false
	}
	var ratio float64
	a.resp, ratio, err = sm.check.check(req, status, body)
	if err != nil {
		r.fail("%v", err)
		return a, false
	}
	sm.mu.Lock()
	sm.ratios = append(sm.ratios, ratio)
	sm.seen++
	if a.resp.CacheHit {
		sm.hits++
	}
	sm.mu.Unlock()
	return a, true
}

// openLoop sends the generated requests through the gateway at their due
// times, whatever the state of earlier requests, and returns each answered
// request's latency from its due time and the generator's lateness, both in
// ms. In a traced run every request is recorded as a span.
func (sm *serveMix) openLoop(r *run) (lat, lag []float64) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	lag = make([]float64, 0, len(sm.offsets))
	start := time.Now()
	for i, off := range sm.offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		wg.Add(1)
		go func(req request, due time.Time) {
			defer wg.Done()
			a, ok := sm.send(r, sm.st.gwL.url, req, due)
			r.span("gateway.schedule", laneLoadgen, due, a.lat, nil)
			if ok {
				mu.Lock()
				lat = append(lat, ms(a.lat))
				mu.Unlock()
			}
		}(sm.reqs[i], due)
	}
	wg.Wait()
	return lat, lag
}

// closedLoop runs `callers` callers that each send their next request as
// soon as the previous one is answered, for dur, and returns the answered
// requests per second. The callers share the request sequence from index
// first on.
func (sm *serveMix) closedLoop(r *run, callers, first int, dur time.Duration) float64 {
	var (
		next     atomic.Int64
		answered atomic.Int64
		wg       sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(sm.reqs)
				if _, ok := sm.send(r, sm.st.gwL.url, sm.reqs[i], time.Now()); ok {
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(answered.Load()) / time.Since(start).Seconds()
}

// serveMixE2E measures the serve-mix workload with tracing off. One
// caller sends the request sequence back to back through the gateway for
// the latency percentiles; then two callers per CPU do the same for the
// capacity, two so that the CPUs stay busy while each caller checks its
// answer. The open loop of the traced run measures latency under Poisson
// arrivals; it is not used here because its tail swings by 2x between runs
// of one seed on a 2-vCPU machine (see README.md).
func serveMixE2E(r *run) error {
	latencyFor := time.Duration(mixLatencyShare * r.opt.seconds * float64(time.Second))
	capacityFor := time.Duration((1 - mixLatencyShare) * r.opt.seconds * float64(time.Second))
	sm, setupS, err := timeSetup(setupRepeats, func() (*serveMix, error) {
		reqs, _ := mixInputs(r.opt.seed, mixRequests, mixRate, 0)
		return setUpServing(r, reqs, nil)
	}, (*serveMix).close)
	if err != nil {
		return err
	}
	defer sm.close()
	r.set("setup_s", setupS)

	lat, next := sm.sequential(r, sm.reqs, latencyFor, false)
	sm.mu.Lock()
	ratios := append([]float64(nil), sm.ratios...)
	sm.mu.Unlock()
	callers := 2 * runtime.NumCPU()
	rps := sm.closedLoop(r, callers, next, capacityFor)

	r.set("latency_p50_ms", median(lat))
	r.set("latency_p99_ms", quantile(lat, 0.99))
	r.set("throughput_per_s", rps)
	r.set("quality_vs_heft", geomean(ratios))
	r.note("latency_samples", len(lat))
	r.note("capacity_callers", callers)
	return nil
}

// sequential sends reqs in order, one at a time, through the gateway:
// each once when dur is 0, otherwise round and round until dur has passed.
// It returns each answered request's latency in ms and the number sent. A
// traced pass records each request as a span.
func (sm *serveMix) sequential(r *run, reqs []request, dur time.Duration, traced bool) ([]float64, int) {
	var lat []float64
	deadline := time.Now().Add(dur)
	i := 0
	for ; dur == 0 && i < len(reqs) || dur > 0 && time.Now().Before(deadline); i++ {
		due := time.Now()
		a, ok := sm.send(r, sm.st.gwL.url, reqs[i%len(reqs)], due)
		if traced {
			r.span("gateway.schedule", laneServe, due, a.lat, nil)
		}
		if ok {
			lat = append(lat, ms(a.lat))
		}
	}
	return lat, i
}

// probeServing measures the serving layers on a set-up stack: a traced
// open loop over sm's arrivals (generator lateness), then each of pairs sent
// once through the gateway and once straight to the replica the gateway
// routes it to, alternating which goes first, and the components' /metrics.
// It returns the makespan each pair was answered with (0 where either
// answer failed); the gateway and the replica must agree on it.
func probeServing(r *run, sm *serveMix, pairs []request) ([]float64, error) {
	open, lag := sm.openLoop(r)
	var hop, direct, overhead, size []float64
	makespans := make([]float64, len(pairs))
	for i, req := range pairs {
		owner := sm.st.gw.RouteFor(&req.req)
		var viaGW, straight answer
		var okGW, okDirect bool
		sendGW := func() {
			due := time.Now()
			viaGW, okGW = sm.send(r, sm.st.gwL.url, req, due)
			r.span("gateway.schedule", laneServe, due, viaGW.lat, nil)
		}
		sendDirect := func() {
			due := time.Now()
			straight, okDirect = sm.send(r, owner, req, due)
			r.span("serve.schedule", laneServe, due, straight.lat, map[string]any{"replica": owner})
		}
		if i%2 == 0 {
			sendGW()
			sendDirect()
		} else {
			sendDirect()
			sendGW()
		}
		if !okGW || !okDirect {
			continue
		}
		if viaGW.resp.Makespan != straight.resp.Makespan {
			r.fail("%s seed %d: gateway answered makespan %g, replica %g", req.m.name(), req.req.Seed, viaGW.resp.Makespan, straight.resp.Makespan)
			continue
		}
		makespans[i] = straight.resp.Makespan
		hop = append(hop, ms(viaGW.lat-straight.lat))
		direct = append(direct, ms(straight.lat))
		overhead = append(overhead, ms(straight.lat)-straight.resp.ElapsedMS)
		size = append(size, float64(straight.size)/1024)
	}

	gm, err := sm.st.metrics(sm.st.gwL.url)
	if err != nil {
		return nil, err
	}
	failovers, err := number(gm, "failovers")
	if err != nil {
		return nil, err
	}
	var rejected, requests float64
	for _, l := range sm.st.replicas {
		m, err := sm.st.metrics(l.url)
		if err != nil {
			return nil, err
		}
		rej, err := number(m, "rejected_busy")
		if err != nil {
			return nil, err
		}
		// A replica that owns none of the requested models has no schedule
		// endpoint entry yet.
		n, err := number(m, "endpoints", "schedule", "requests")
		if err != nil {
			n = 0
		}
		rejected += rej
		requests += n
	}
	sm.mu.Lock()
	hits := float64(sm.hits) / float64(max(1, sm.seen))
	sm.mu.Unlock()

	r.set("gateway.hop_ms_p50", median(hop))
	r.set("gateway.failovers", failovers)
	r.set("serve.request_ms_p50", median(direct))
	r.set("serve.request_ms_p99", quantile(direct, 0.99))
	r.set("serve.overhead_ms_p50", median(overhead))
	r.set("serve.rejected_ratio", rejected/max(1, requests))
	r.set("serve.registry_hit_ratio", hits)
	r.set("serve.response_kb", mean(size))
	r.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	r.set("loadgen.open_p50_ms", median(open))
	r.set("loadgen.open_p99_ms", quantile(open, 0.99))
	r.note("serving_pairs", len(direct))
	r.note("serving_open_loop_requests", len(lag))
	return makespans, nil
}

// traceOverhead returns traced over untraced wall time from an untraced,
// a traced and a second untraced pass, so drift during the run cancels.
func traceOverhead(untraced, traced func() time.Duration) float64 {
	u1 := untraced()
	t := traced()
	u2 := untraced()
	return t.Seconds() / ((u1 + u2).Seconds() / 2)
}

// serveMixLedger is the traced run of serve-mix: trace overhead on
// sequential gateway passes, the serving probe, and an in-process replay of
// the same requests through every layer below HTTP, which must reproduce
// the replicas' makespans exactly.
func serveMixLedger(r *run) error {
	openFor := time.Duration(ledgerOpenShare * r.opt.seconds * float64(time.Second))
	reqs, offsets := mixInputs(r.opt.seed, mixRequests, mixRate, openFor)
	sm, err := setUpServing(r, reqs, offsets)
	if err != nil {
		return err
	}
	defer sm.close()
	// Whole blocks after the open loop's requests, so each quarter of the
	// replay has the same mix and core.decide_growth compares like with like.
	block := len(mixBlock())
	from := (len(offsets) + block - 1) / block * block
	sample := reqs[from : from+max(1, int(float64(ledgerMixBlocks*block)*r.opt.size))]

	pass := func(traced bool) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			sm.sequential(r, sample, 0, traced)
			return time.Since(start)
		}
	}
	r.set("trace.overhead_ratio", traceOverhead(pass(false), pass(true)))
	served, err := probeServing(r, sm, sample)
	if err != nil {
		return err
	}

	agents := map[model]*core.Agent{}
	items := make([]replayItem, len(sample))
	for i, req := range sample {
		a, ok := agents[req.served()]
		if !ok {
			s := req.served()
			if a, err = exp.LoadAgent(exp.DefaultAgentSpec(s.kind, s.t, s.cpus, s.gpus), filepath.Join(r.opt.root, "models")); err != nil {
				return err
			}
			agents[s] = a
		}
		items[i] = replayItem{agent: a, prob: problemOf(req), seed: req.req.Seed}
	}
	l := &ledger{r: r}
	for i, m := range l.replayProblems(items) {
		if m != 0 && served[i] != 0 && m != served[i] {
			r.fail("%s seed %d: replica makespan %g, in-process replay %g", sample[i].m.name(), sample[i].req.Seed, served[i], m)
		}
	}
	l.emit()
	if err := l.tensorProbe(); err != nil {
		return err
	}
	first := sample[0].m
	spec := exp.DefaultAgentSpec(first.kind, first.t, first.cpus, first.gpus)
	spec.Seed = r.opt.seed
	cfg := rl.DefaultConfig()
	cfg.Episodes, cfg.BatchEpisodes, cfg.Seed = ledgerRLBatches*trainBatch, trainBatch, r.opt.seed
	rollout, learn, _, ok := rlProbe(r, rl.NewTrainer(core.NewAgent(spec.AgentConfig()), spec.Problem(), cfg))
	if ok {
		setRL(r, rollout, learn)
	}
	return nil
}

// problemOf is the scheduling problem a replica builds for req.
func problemOf(req request) core.Problem {
	return core.Problem{
		Graph:    taskgraph.NewByKind(req.m.kind, req.m.t),
		Platform: platform.New(req.m.cpus, req.m.gpus),
		Timing:   platform.TimingFor(req.m.kind),
		Sigma:    req.req.Sigma,
	}
}
