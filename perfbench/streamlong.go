package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/sim"
	"readys/internal/stream"
)

const (
	// streamJobs is the length of one stream: long enough that the per-call
	// cost growth with the union DAG shows.
	streamJobs = 400
	// streamLoad scales the arrival rate of the stream checkpoint's training
	// process (1 = jobs arrive as fast as a dedicated cluster serves them).
	streamLoad = 0.5
	// streamFaultRate is the sim.SpecForRate fault rate over a stream.
	streamFaultRate = 1.0
	// streamSigma is the duration-noise level.
	streamSigma = 0.1
	// streamNominalSeconds is the wall time of one stream on a 2-vCPU
	// machine; --seconds / streamNominalSeconds streams make one run, so
	// the amount of work is fixed by the arguments, not by the speed.
	streamNominalSeconds = 0.6
	// streamWarmUpJobs is the length of the set-up's warm-up stream.
	streamWarmUpJobs = 100
	// streamProbeRate is the serving probe's open-loop rate for the
	// stream's small jobs, requests per second.
	streamProbeRate = 150.0
)

// streamInput is one seeded stream: Poisson arrivals of Cholesky/LU jobs
// and a fault plan over the arrival window.
type streamInput struct {
	arrivals []stream.Arrival
	plan     *sim.FaultPlan
	seed     int64
}

func (in streamInput) config() stream.Config {
	return stream.Config{
		Platform: platform.New(2, 2), Arrivals: in.arrivals, Sigma: streamSigma,
		Faults: in.plan, Rng: rand.New(rand.NewSource(in.seed)),
	}
}

// streamLong is the set-up stream-long workload: the stream checkpoint and
// the run's generated streams.
type streamLong struct {
	agent  *core.Agent
	inputs []streamInput
}

// streamCount is the number of streams a run measures.
func streamCount(opt options) int {
	return max(1, int(math.Round(opt.seconds/streamNominalSeconds)))
}

// streamInputs generates n streams of jobs jobs each from the seed.
func streamInputs(seed int64, n, jobs int) ([]streamInput, error) {
	proc := exp.StreamTrainProcess()
	isolated := 1000 / proc.Rate // mean isolated HEFT makespan of the job mix, ms
	proc.Rate *= streamLoad
	proc.Jobs = jobs
	out := make([]streamInput, 0, n)
	for k := 0; k < n; k++ {
		base := seed*1000 + int64(k)
		arrivals, err := proc.Generate(rand.New(rand.NewSource(base)))
		if err != nil {
			return nil, err
		}
		horizon := arrivals[len(arrivals)-1].At + core.FaultHorizonFactor*isolated
		plan := sim.GeneratePlan(base+104729, platform.New(2, 2).Size(), sim.SpecForRate(streamFaultRate, horizon))
		out = append(out, streamInput{arrivals: arrivals, plan: plan, seed: base})
	}
	return out, nil
}

// loadStreamAgent restores the committed stream checkpoint.
func loadStreamAgent(root string) (*core.Agent, error) {
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	if _, err := agent.LoadCheckpoint(exp.StreamAgentPath(filepath.Join(root, "models"))); err != nil {
		return nil, fmt.Errorf("loading stream checkpoint: %w", err)
	}
	return agent, nil
}

// setUpStreamLong loads the checkpoint, generates the streams and schedules
// a warm-up stream of streamWarmUpJobs jobs, the same for every seed, so
// code is paged in and buffers are grown before timing starts.
func setUpStreamLong(r *run, n, jobs int) (*streamLong, error) {
	agent, err := loadStreamAgent(r.opt.root)
	if err != nil {
		return nil, err
	}
	inputs, err := streamInputs(r.opt.seed, n, jobs)
	if err != nil {
		return nil, err
	}
	warmUp, err := streamInputs(0, 1, streamWarmUpJobs)
	if err != nil {
		return nil, err
	}
	warm := warmUp[0]
	res, _, err := runStream(warm, core.NewServingPolicy(agent, core.PrecisionFloat64))
	if err == nil {
		err = checkStream(warm, res)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up stream: %w", err)
	}
	return &streamLong{agent: agent, inputs: inputs}, nil
}

// runStream schedules one stream under pol and returns its result and the
// wall time of stream.Run.
func runStream(in streamInput, pol sim.Policy) (*stream.Result, time.Duration, error) {
	start := time.Now()
	res, err := stream.Run(pol, in.config())
	return res, time.Since(start), err
}

// checkStream validates a stream run: the union schedule passes the strict
// validator (durations, fault windows, kills), and every job completed with
// a finite, positive response.
func checkStream(in streamInput, res *stream.Result) error {
	if err := res.Validate(); err != nil {
		return fmt.Errorf("stream seed %d: %w", in.seed, err)
	}
	if len(res.Jobs) != len(in.arrivals) {
		return fmt.Errorf("stream seed %d: %d job results for %d arrivals", in.seed, len(res.Jobs), len(in.arrivals))
	}
	for _, j := range res.Jobs {
		if !(j.Response > 0) || math.IsInf(j.Response, 0) || !(j.IsolatedMakespan > 0) {
			return fmt.Errorf("stream seed %d: job %d response %g, isolated makespan %g", in.seed, j.Job, j.Response, j.IsolatedMakespan)
		}
	}
	return nil
}

// streamLongE2E measures the stream-long workload with tracing off: the
// READYS serving policy schedules each generated stream and every policy
// call is timed. Throughput and quality are medians over the streams, so one
// stream whose cluster lost a resource early does not swing the run.
func streamLongE2E(r *run) error {
	sl, setupS, err := timeSetup(setupRepeats, func() (*streamLong, error) {
		return setUpStreamLong(r, streamCount(r.opt), int(float64(streamJobs)*r.opt.size))
	}, func(*streamLong) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)

	var (
		jobs    int
		calls   []float64
		rate    []float64 // jobs per second of each stream
		quality []float64 // geometric mean isolated/response of each stream
	)
	for _, in := range sl.inputs {
		// Every stream starts from a collected heap, so the collector's
		// phase at a stream's start does not depend on the streams before.
		runtime.GC()
		tp := &timedPolicy{inner: core.NewServingPolicy(sl.agent, core.PrecisionFloat64)}
		res, d, err := runStream(in, tp)
		r.attempt(1)
		if err == nil {
			err = checkStream(in, res)
		}
		if err != nil {
			r.fail("%v", err)
			continue
		}
		jobs += len(res.Jobs)
		calls = append(calls, tp.durs...)
		rate = append(rate, float64(len(res.Jobs))/d.Seconds())
		ratios := make([]float64, len(res.Jobs))
		for i, j := range res.Jobs {
			ratios[i] = j.IsolatedMakespan / j.Response
		}
		quality = append(quality, geomean(ratios))
	}
	r.note("stream_jobs_per_s", append([]float64(nil), rate...))
	r.note("stream_quality", append([]float64(nil), quality...))
	for i := range calls {
		calls[i] /= 1000 // µs → ms
	}
	r.set("throughput_per_s", median(rate))
	r.set("latency_p50_ms", median(calls))
	r.set("latency_p99_ms", quantile(calls, 0.99))
	r.set("quality_vs_heft", median(quality))
	r.note("streams", len(sl.inputs))
	r.note("jobs", jobs)
	r.note("policy_calls", len(calls))
	return nil
}

// streamLongLedger is the traced run of stream-long: trace overhead and the
// layer replay on the run's first stream, A2C stream training for the rl
// layer, and the serving probe on the stream's jobs submitted as single
// schedule requests (T=3 jobs are served by the T=2 checkpoint, the paper's
// transfer setting).
func streamLongLedger(r *run) error {
	sl, err := setUpStreamLong(r, 1, int(float64(streamJobs)*r.opt.size))
	if err != nil {
		return err
	}
	in := sl.inputs[0]
	l := &ledger{r: r}
	untraced := func() time.Duration {
		tp := &timedPolicy{inner: core.NewServingPolicy(sl.agent, core.PrecisionFloat64)}
		_, wall, err := runStream(in, tp)
		if err != nil {
			r.fail("%v", err)
		}
		return wall
	}
	r.set("trace.overhead_ratio", traceOverhead(untraced, func() time.Duration { return l.replayStream(sl.agent, in) }))
	l.emit()
	if err := l.tensorProbe(); err != nil {
		return err
	}

	proc := exp.StreamTrainProcess()
	cfg := rl.DefaultConfig()
	cfg.Episodes, cfg.BatchEpisodes, cfg.Seed, cfg.Arrivals = ledgerRLBatches*trainBatch, trainBatch, r.opt.seed, &proc
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: r.opt.seed})
	rollout, learn, _, ok := rlProbe(r, rl.NewTrainer(agent, core.Problem{Platform: platform.New(2, 2), Sigma: streamSigma}, cfg))
	if ok {
		setRL(r, rollout, learn)
	}

	jobs := in.arrivals
	next := 0
	return probeWith(r, streamProbeRate, func(rng *rand.Rand) request {
		a := jobs[next%len(jobs)]
		next++
		return newRequest(model{a.Kind, a.Size, 2, 2}, 2, rng.Int63())
	})
}
