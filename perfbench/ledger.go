package main

import (
	"fmt"
	"math/rand"
	"time"

	"readys/internal/core"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

// The layer ledger is the traced run. Every workload's ledger measures
// every layer on that workload's own inputs, by timing calls into each
// layer's public functions from this file and recording each call as a span:
//
//   - core: the serving policy (core.NewServingPolicy) behind timedPolicy;
//   - sim: the simulation around it, sim.ValidateResult / the stream
//     validator, and the event loop under the near-free sched.MCTPolicy;
//   - sched: sched.HEFT and the MCT reference rollout per job;
//   - tensor: tensor.MatMulInto and tensor.SpMMInto at the shapes of the
//     workload's own decision windows;
//   - serve and gateway: the HTTP tier, through its public endpoints;
//   - rl: A2C training, split by the trainer's progress callback.

// Span lanes of a traced run.
const (
	laneCore    = 1
	laneSim     = 2
	laneServe   = 3
	laneTensor  = 4
	laneRL      = 5
	laneLoadgen = 6
)

// windowSampleEvery is how often timedPolicy keeps a copy of the decision
// window for the tensor probe.
const windowSampleEvery = 256

// timedPolicy wraps the policy under test and times every Decide call; in
// a traced run it also records each call as a core.decide span.
type timedPolicy struct {
	inner sim.Policy
	// r, when set, receives a span per call.
	r *run
	// durs holds each call's duration in µs, in call order.
	durs []float64
	idle int

	// cfg, when set, makes the policy keep every windowSampleEvery-th
	// decision window (re-encoded outside the timed call) in windows.
	cfg        *core.Config
	windows    []*core.EncodedState
	feats      [][taskgraph.NumKernels]float64
	sampleTime time.Duration
}

func (p *timedPolicy) Reset(s *sim.State) { p.inner.Reset(s) }

func (p *timedPolicy) Decide(s *sim.State, res int) int {
	start := time.Now()
	task := p.inner.Decide(s, res)
	d := time.Since(start)
	p.durs = append(p.durs, us(d))
	if task == sim.NoTask {
		p.idle++
	}
	if p.r != nil {
		p.r.span("core.decide", laneCore, start, d, nil)
	}
	if p.cfg != nil && len(p.durs)%windowSampleEvery == 0 {
		p.sample(s, res)
	}
	return task
}

// sample re-encodes the current decision state; its cost is kept apart so
// it can be taken out of the simulator's self time.
func (p *timedPolicy) sample(s *sim.State, res int) {
	start := time.Now()
	if len(p.feats) != s.Graph.NumTasks() {
		p.feats = taskgraph.DescendantFeatures(s.Graph)
	}
	p.windows = append(p.windows, core.EncodeFault(s, res, p.feats, p.cfg.Window, p.cfg.Directed, p.cfg.FaultFeatures))
	p.sampleTime += time.Since(start)
}

// ledger accumulates the layer measurements of one traced run.
type ledger struct {
	r *run

	decide      []float64 // µs per policy call
	growth      []float64 // per call sequence: last-quarter / first-quarter mean cost
	calls, idle int
	tasks       int
	decideTotal time.Duration
	infer       time.Duration
	simSelf     time.Duration
	rebuilds    int
	encodes     int

	heft, mctRef, validate []float64 // µs per call
	mctJobs                int
	mctWall                time.Duration
	union                  []float64
	kills                  int
	windows                []*core.EncodedState
	hidden                 int
}

// timed calls fn and records it as a span on lane; it returns fn's
// duration.
func (l *ledger) timed(name string, lane int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.r.span(name, lane, start, d, nil)
	return d
}

// addPolicy folds one timed run of a serving policy into the ledger: wall is
// the wall time of the simulation that drove it, tasks the tasks it placed.
func (l *ledger) addPolicy(tp *timedPolicy, pol *core.Policy, wall time.Duration, tasks int) {
	var inDecide float64
	for _, d := range tp.durs {
		inDecide += d
	}
	l.decide = append(l.decide, tp.durs...)
	l.calls += len(tp.durs)
	l.idle += tp.idle
	l.tasks += tasks
	decide := time.Duration(inDecide * float64(time.Microsecond))
	l.decideTotal += decide
	l.infer += pol.InferenceTime
	l.simSelf += wall - decide - tp.sampleTime
	st := pol.IncrementalStats()
	l.rebuilds += st.Rebuilds
	l.encodes += st.Decisions
	l.windows = append(l.windows, tp.windows...)
	l.hidden = pol.Agent.Cfg.Hidden
}

// growthOf compares the per-call cost at the end of a workload with that at
// its start. units holds the mean cost per call of consecutive units of
// work — the rollouts of single-DAG requests, or the chunks of one stream's
// calls — and the median over the last quarter of the units is divided by
// the median over the first quarter. Unit means keep the rare expensive
// calls that make up a stream's growth; the medians keep one unit hit by a
// collector pause or a preemption from swinging the ratio.
func growthOf(units []float64) float64 {
	q := len(units) / 4
	if q == 0 {
		return 1
	}
	return median(append([]float64(nil), units[len(units)-q:]...)) / median(append([]float64(nil), units[:q]...))
}

// chunkMeans cuts a call sequence into n chunks and returns their mean
// costs.
func chunkMeans(durs []float64, n int) []float64 {
	if len(durs) < n {
		return []float64{mean(durs)}
	}
	means := make([]float64, n)
	for c := range means {
		means[c] = mean(durs[c*len(durs)/n : (c+1)*len(durs)/n])
	}
	return means
}

// replayItem is one single-DAG rollout the ledger replays in process: the
// agent a replica would serve, the problem and the request seed.
type replayItem struct {
	agent *core.Agent
	prob  core.Problem
	seed  int64
}

// replayProblems rolls each item out with a timed serving policy exactly as
// a replica does (same agent, problem and seed), validates the schedule and
// times the HEFT and MCT references. The rollouts, in order, are the units
// of one growth sample. The per-call cost differs by problem, so each
// rollout's cost is taken relative to the median over the rollouts of the
// same agent and graph size: the quarters then compare like with like,
// whatever mix of problems each holds. It returns the READYS makespans, 0
// where a rollout failed.
func (l *ledger) replayProblems(items []replayItem) []float64 {
	// One untimed rollout per agent first: otherwise the cold first calls
	// (caches, buffers growing) make the sequence look like it speeds up.
	warm := map[*core.Agent]bool{}
	for _, it := range items {
		if !warm[it.agent] {
			warm[it.agent] = true
			if _, err := it.prob.Simulate(core.NewServingPolicy(it.agent, core.PrecisionFloat64), rand.New(rand.NewSource(it.seed))); err != nil {
				l.r.fail("replay warm-up: %v", err)
			}
		}
	}
	type problemKey struct {
		agent *core.Agent
		tasks int
	}
	makespans := make([]float64, len(items))
	var (
		units []float64
		keys  []problemKey
	)
	costs := map[problemKey][]float64{}
	for i, it := range items {
		pol := core.NewServingPolicy(it.agent, core.PrecisionFloat64)
		tp := &timedPolicy{inner: pol, r: l.r, cfg: &it.agent.Cfg}
		g, plat := it.prob.Graph, it.prob.Platform
		var (
			res sim.Result
			err error
		)
		wall := l.timed("sim.simulate", laneSim, func() { res, err = it.prob.Simulate(tp, rand.New(rand.NewSource(it.seed))) })
		l.r.attempt(1)
		if err != nil {
			l.r.fail("replay %d: %v", i, err)
			continue
		}
		l.validate = append(l.validate, us(l.timed("sim.validate", laneSim, func() { err = sim.ValidateResult(g, plat.Size(), res) })))
		if err != nil {
			l.r.fail("replay %d: %v", i, err)
			continue
		}
		l.heft = append(l.heft, us(l.timed("sched.heft", laneSim, func() { sched.HEFT(g, plat, it.prob.Timing) })))
		d := l.timed("sched.mct_ref", laneSim, func() { _, err = it.prob.Simulate(sched.MCTPolicy{}, rand.New(rand.NewSource(it.seed))) })
		if err != nil {
			l.r.fail("replay %d MCT reference: %v", i, err)
			continue
		}
		l.mctRef = append(l.mctRef, us(d))
		l.mctJobs++
		l.mctWall += d
		l.addPolicy(tp, pol, wall, g.NumTasks())
		l.union = append(l.union, float64(g.NumTasks()))
		k := problemKey{it.agent, g.NumTasks()}
		units = append(units, mean(tp.durs))
		keys = append(keys, k)
		costs[k] = append(costs[k], mean(tp.durs))
		makespans[i] = res.Makespan
	}
	for i, k := range keys {
		units[i] /= median(append([]float64(nil), costs[k]...))
	}
	l.growth = append(l.growth, growthOf(units))
	return makespans
}

// replayStream schedules one stream with a timed, traced serving policy,
// validates it, times HEFT and an MCT reference for every job alone, and
// runs the whole stream again under the near-free MCT policy. It returns
// the wall time of the READYS stream.
func (l *ledger) replayStream(agent *core.Agent, in streamInput) time.Duration {
	pol := core.NewServingPolicy(agent, core.PrecisionFloat64)
	tp := &timedPolicy{inner: pol, r: l.r, cfg: &agent.Cfg}
	res, wall, err := runStream(in, tp)
	l.r.span("stream.run", laneSim, time.Now().Add(-wall), wall, map[string]any{"jobs": len(in.arrivals)})
	l.r.attempt(1)
	if err == nil {
		l.validate = append(l.validate, us(l.timed("sim.validate", laneSim, func() { err = checkStream(in, res) })))
	}
	if err != nil {
		l.r.fail("%v", err)
		return wall
	}
	union := len(res.Sim.Trace)
	l.addPolicy(tp, pol, wall, union)
	l.growth = append(l.growth, growthOf(chunkMeans(tp.durs, 20)))
	l.union = append(l.union, float64(union))
	l.kills += res.Kills

	plat := platform.New(2, 2)
	for i, a := range in.arrivals {
		g, tt := a.Graph(), platform.TimingFor(a.Kind)
		l.heft = append(l.heft, us(l.timed("sched.heft", laneSim, func() { sched.HEFT(g, plat, tt) })))
		prob := core.Problem{Graph: g, Platform: plat, Timing: tt, Sigma: streamSigma}
		l.mctRef = append(l.mctRef, us(l.timed("sched.mct_ref", laneSim, func() {
			_, err = prob.Simulate(sched.MCTPolicy{}, rand.New(rand.NewSource(in.seed+int64(i))))
		})))
		if err != nil {
			l.r.fail("stream seed %d job %d MCT reference: %v", in.seed, i, err)
		}
	}
	mres, mwall, err := runStream(in, sched.MCTPolicy{})
	l.r.span("stream.run_mct", laneSim, time.Now().Add(-mwall), mwall, nil)
	l.r.attempt(1)
	if err == nil {
		err = checkStream(in, mres)
	}
	if err != nil {
		l.r.fail("MCT %v", err)
		return wall
	}
	l.mctJobs += len(mres.Jobs)
	l.mctWall += mwall
	return wall
}

// tensorProbe times tensor.MatMulInto and tensor.SpMMInto at the shape of
// the workload's median sampled decision window: rows × hidden activations
// times a hidden × hidden weight, and the window's normalised adjacency
// times the activations.
func (l *ledger) tensorProbe() error {
	if len(l.windows) == 0 {
		return fmt.Errorf("tensor probe: no decision window was sampled")
	}
	rows := make([]float64, len(l.windows))
	for i, w := range l.windows {
		rows[i] = float64(len(w.Nodes))
	}
	med := median(append([]float64(nil), rows...))
	var es *core.EncodedState
	for _, w := range l.windows {
		if float64(len(w.Nodes)) == med {
			es = w
			break
		}
	}
	n, h := len(es.Nodes), l.hidden
	rng := rand.New(rand.NewSource(l.r.opt.seed))
	act := tensor.RandUniform(rng, n, h, 1)
	weight := tensor.RandUniform(rng, h, h, 1)
	out := tensor.New(n, h)
	mm := l.kernelNS("tensor.matmul", func() { tensor.MatMulInto(act, weight, out) })
	sp := l.kernelNS("tensor.spmm", func() { tensor.SpMMInto(es.Norm, act, out) })
	nnz := es.Norm.NNZ()
	l.r.set("tensor.matmul_ns", mm)
	l.r.set("tensor.spmm_ns", sp)
	l.r.set("tensor.window_rows", float64(n))
	// Operations and bytes one call computes on: multiply-adds count two
	// flops; bytes are the operands read plus the result written.
	mmFlop, spFlop := 2*float64(n*h*h), 2*float64(nnz*h)
	mmBytes := 8 * float64(n*h+h*h+n*h)
	spBytes := 8*float64(nnz) + 8*float64(nnz) + 8*float64(n+1) + 8*float64(n*h+n*h)
	l.r.note("tensor_shape", map[string]any{"rows": n, "hidden": h, "nnz": nnz})
	l.r.note("tensor_matmul", map[string]any{"flop": mmFlop, "bytes": mmBytes, "gflop_per_s": mmFlop / mm})
	l.r.note("tensor_spmm", map[string]any{"flop": spFlop, "bytes": spBytes, "gflop_per_s": spFlop / sp})
	return nil
}

// kernelNS returns the median ns per call of fn over 21 batches of about a
// millisecond each, each batch recorded as a span.
func (l *ledger) kernelNS(name string, fn func()) float64 {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(start) > time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	per := make([]float64, 21)
	for b := range per {
		d := l.timed(name, laneTensor, func() {
			for i := 0; i < reps; i++ {
				fn()
			}
		})
		per[b] = float64(d.Nanoseconds()) / float64(reps)
	}
	return median(per)
}

// emit sets the core, sim, sched and stream metrics from the ledger.
func (l *ledger) emit() {
	r := l.r
	r.set("core.decide_us_p50", median(append([]float64(nil), l.decide...)))
	r.set("core.decide_us_p99", quantile(append([]float64(nil), l.decide...), 0.99))
	r.set("core.calls_per_task", float64(l.calls)/float64(max(1, l.tasks)))
	r.set("core.idle_call_ratio", float64(l.idle)/float64(max(1, l.calls)))
	r.set("core.rebuild_ratio", float64(l.rebuilds)/float64(max(1, l.encodes)))
	r.set("core.forward_share", l.infer.Seconds()/l.decideTotal.Seconds())
	r.set("core.decide_growth", median(l.growth))
	r.set("sim.self_us_per_task", us(l.simSelf)/float64(max(1, l.tasks)))
	r.set("sim.validate_us", mean(l.validate))
	r.set("sim.mct_jobs_per_s", float64(l.mctJobs)/l.mctWall.Seconds())
	r.set("sched.heft_us", mean(l.heft))
	r.set("sched.mct_ref_us", mean(l.mctRef))
	r.set("stream.union_tasks", mean(l.union))
	r.set("stream.kills", float64(l.kills))
	r.note("policy_calls", l.calls)
	r.note("tasks_placed", l.tasks)
}

// rlProbe trains t with a progress callback that stamps every episode and
// records the gaps as spans, and splits the wall time per episode into
// rollout and learning: within a batch, consecutive callbacks are one
// episode's backward pass apart; the gap before a batch's first callback
// also holds the whole batch's (parallel) rollout.
func rlProbe(r *run, t *rl.Trainer) (rolloutMS, learnMS float64, wall time.Duration, ok bool) {
	batch := t.Cfg.BatchEpisodes
	stamps := make([]time.Time, 0, t.Cfg.Episodes)
	start := time.Now()
	prev := start
	_, wall, ok = trainRun(r, t, func(st rl.EpisodeStats) {
		now := time.Now()
		name := "rl.learn"
		if len(stamps)%batch == 0 {
			name = "rl.rollout_and_learn"
		}
		r.span(name, laneRL, prev, now.Sub(prev), map[string]any{"episode": st.Episode})
		stamps = append(stamps, now)
		prev = now
	})
	if !ok || len(stamps) == 0 {
		return 0, 0, wall, false
	}
	var learn, first []float64
	for i := range stamps {
		before := start
		if i > 0 {
			before = stamps[i-1]
		}
		gap := ms(stamps[i].Sub(before))
		if i%batch == 0 {
			first = append(first, gap)
		} else {
			learn = append(learn, gap)
		}
	}
	learnMS = mean(learn)
	return (mean(first) - learnMS) / float64(batch), learnMS, wall, true
}

// setRL records the rl split of a probe.
func setRL(r *run, rolloutMS, learnMS float64) {
	r.set("rl.rollout_ms_per_ep", rolloutMS)
	r.set("rl.learn_ms_per_ep", learnMS)
}
