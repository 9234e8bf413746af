package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/rl"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

const (
	// trainBatch is the A2C batch: episodes per gradient update.
	trainBatch = 8
	// trainEpisodesPerSecond is the nominal training rate on a 2-vCPU
	// machine; --seconds × this many episodes (whole batches) make one run.
	trainEpisodesPerSecond = 19
	// ledgerTrainBatches is the length of each training pass of a traced
	// run, in batches.
	ledgerTrainBatches = 6
	// ledgerReplays is the number of seeded rollouts a traced run replays
	// in process.
	ledgerReplays = 32
	// ledgerPairs is the number of gateway/replica request pairs of the
	// serving probe outside serve-mix.
	ledgerPairs = 50
	// trainProbeRate is the serving probe's open-loop rate for Cholesky T=8
	// requests, requests per second.
	trainProbeRate = 25.0
)

// trainSpec is the train-a2c problem: Cholesky T=8 on 2 CPUs + 2 GPUs with
// the default agent spec.
var trainSpec = exp.DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2)

// newTrainer builds an A2C trainer for trainSpec with the default
// hyper-parameters, batch trainBatch and the default rollout worker count.
// Training resumes from the committed checkpoint of the spec: from a random
// initialisation, episode lengths, and with them the cost and the quality of
// a run, depend on how far each seed's learning has got. seed drives the
// episodes: duration noise and action sampling.
func newTrainer(root string, seed int64, episodes int) (*rl.Trainer, error) {
	agent, err := exp.LoadAgent(trainSpec, filepath.Join(root, "models"))
	if err != nil {
		return nil, err
	}
	cfg := rl.DefaultConfig()
	cfg.Episodes = episodes
	cfg.BatchEpisodes = trainBatch
	cfg.Seed = seed
	return rl.NewTrainer(agent, trainSpec.Problem(), cfg), nil
}

// trainEpisodes is the number of episodes a run trains: whole batches.
func trainEpisodes(opt options) int {
	n := int(math.Round(opt.seconds*opt.size*trainEpisodesPerSecond/trainBatch)) * trainBatch
	return max(trainBatch, n)
}

// setUpTrainer builds the measured trainer and trains one warm-up batch, the
// same for every seed, on a throwaway agent, so tensor pools are filled and
// code is paged in before timing starts.
func setUpTrainer(root string, seed int64, episodes int) (*rl.Trainer, error) {
	warm, err := newTrainer(root, 0, trainBatch)
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(nil); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return newTrainer(root, seed, episodes)
}

// checkHistory verifies a training history: one record per episode, every
// number finite and every makespan positive. Stream training has per-episode
// baselines and leaves the history's HEFT baseline at 0.
func checkHistory(h rl.History, episodes int, stream bool) error {
	if len(h.Episodes) != episodes {
		return fmt.Errorf("history has %d episodes, want %d", len(h.Episodes), episodes)
	}
	if !stream && !(h.BaselineMakespan > 0) {
		return fmt.Errorf("HEFT baseline %g", h.BaselineMakespan)
	}
	for _, e := range h.Episodes {
		for _, v := range []float64{e.Makespan, e.Reward, e.Entropy, e.Loss, e.PolicyLoss, e.ValueLoss, e.GradNorm} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("episode %d: non-finite statistics %+v", e.Episode, e)
			}
		}
		if !(e.Makespan > 0) {
			return fmt.Errorf("episode %d: makespan %g", e.Episode, e.Makespan)
		}
	}
	return nil
}

// checkTrainedAgent schedules the training problem greedily with the
// trained agent and validates the schedule. Stream training has no single
// problem graph; its history check stands alone.
func checkTrainedAgent(t *rl.Trainer, seed int64) error {
	if t.Problem.Graph == nil {
		return nil
	}
	res, err := t.Problem.Simulate(core.NewPolicy(t.Agent), rand.New(rand.NewSource(seed)))
	if err != nil {
		return fmt.Errorf("rollout of the trained agent: %w", err)
	}
	if err := sim.ValidateResult(t.Problem.Graph, t.Problem.Platform.Size(), res); err != nil {
		return fmt.Errorf("rollout of the trained agent: %w", err)
	}
	return nil
}

// trainRun trains t, calling progress after every episode, and checks the
// outcome; it returns the history and the wall time of Run.
func trainRun(r *run, t *rl.Trainer, progress func(rl.EpisodeStats)) (rl.History, time.Duration, bool) {
	start := time.Now()
	hist, err := t.Run(progress)
	wall := time.Since(start)
	r.attempt(t.Cfg.Episodes + 1)
	if err == nil {
		err = checkHistory(hist, t.Cfg.Episodes, t.Cfg.Arrivals != nil)
	}
	if err == nil {
		err = checkTrainedAgent(t, r.opt.seed)
	}
	if err != nil {
		r.fail("training: %v", err)
		return hist, wall, false
	}
	return hist, wall, true
}

// trainA2CE2E measures the train-a2c workload with tracing off: episodes
// per second, the wall time of each gradient update, and the HEFT/episode
// makespan ratio along the learning curve.
func trainA2CE2E(r *run) error {
	episodes := trainEpisodes(r.opt)
	t, setupS, err := timeSetup(setupRepeats, func() (*rl.Trainer, error) {
		return setUpTrainer(r.opt.root, r.opt.seed, episodes)
	}, func(*rl.Trainer) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)

	stamps := make([]time.Time, 0, episodes)
	start := time.Now()
	hist, wall, ok := trainRun(r, t, func(rl.EpisodeStats) { stamps = append(stamps, time.Now()) })
	if !ok {
		return nil
	}
	var updates, ratios []float64
	prev := start
	for i := trainBatch - 1; i < len(stamps); i += trainBatch {
		updates = append(updates, ms(stamps[i].Sub(prev)))
		prev = stamps[i]
	}
	for _, e := range hist.Episodes {
		ratios = append(ratios, hist.BaselineMakespan/e.Makespan)
	}
	r.set("throughput_per_s", float64(episodes)/wall.Seconds())
	r.set("latency_p50_ms", median(updates))
	r.set("latency_p99_ms", quantile(updates, 0.99))
	r.set("quality_vs_heft", geomean(ratios))
	r.note("episodes", episodes)
	r.note("updates", len(updates))
	return nil
}

// trainA2CLedger is the traced run of train-a2c: the rl split and trace
// overhead of a short training run, an in-process replay of the committed
// Cholesky T=8 checkpoint through the lower layers, and the serving probe on
// Cholesky T=8 requests.
func trainA2CLedger(r *run) error {
	episodes := max(1, int(ledgerTrainBatches*r.opt.size)) * trainBatch
	var (
		rollout, learn float64
		ok             bool
	)
	untraced := func() time.Duration {
		t, err := setUpTrainer(r.opt.root, r.opt.seed, episodes)
		if err != nil {
			r.fail("%v", err)
			return 0
		}
		_, wall, _ := trainRun(r, t, func(rl.EpisodeStats) {})
		return wall
	}
	traced := func() time.Duration {
		t, err := newTrainer(r.opt.root, r.opt.seed, episodes)
		if err != nil {
			r.fail("%v", err)
			return 0
		}
		var wall time.Duration
		rollout, learn, wall, ok = rlProbe(r, t)
		return wall
	}
	r.set("trace.overhead_ratio", traceOverhead(untraced, traced))
	if ok {
		setRL(r, rollout, learn)
	}

	agent, err := exp.LoadAgent(trainSpec, filepath.Join(r.opt.root, "models"))
	if err != nil {
		return err
	}
	l := &ledger{r: r}
	items := make([]replayItem, max(1, int(ledgerReplays*r.opt.size)))
	for i := range items {
		items[i] = replayItem{agent: agent, prob: trainSpec.Problem(), seed: r.opt.seed*1000 + int64(i)}
	}
	l.replayProblems(items)
	l.emit()
	if err := l.tensorProbe(); err != nil {
		return err
	}

	m := model{taskgraph.Cholesky, 8, 2, 2}
	return probeWith(r, trainProbeRate, func(rng *rand.Rand) request { return newRequest(m, m.t, rng.Int63()) })
}

// probeWith runs the serving probe on requests drawn by next from the
// workload seed, with open-loop arrivals at rate.
func probeWith(r *run, rate float64, next func(*rand.Rand) request) error {
	openFor := time.Duration(ledgerOpenShare * r.opt.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(r.opt.seed))
	pairs := max(1, int(ledgerPairs*r.opt.size))
	var offsets []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= openFor {
			break
		}
		offsets = append(offsets, d)
	}
	reqs := make([]request, len(offsets)+pairs)
	for i := range reqs {
		reqs[i] = next(rng)
	}
	sm, err := setUpServing(r, reqs, offsets)
	if err != nil {
		return err
	}
	defer sm.close()
	_, err = probeServing(r, sm, reqs[len(offsets):])
	return err
}
