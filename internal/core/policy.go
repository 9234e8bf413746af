package core

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"readys/internal/autograd"
	"readys/internal/nn"
	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// Step records one decision of a training episode: the encoded state, the
// forward pass (whose tape the loss will be built on) and the chosen action.
// A2C builds its loss directly on Forward's tape; PPO re-evaluates State
// under updated parameters.
type Step struct {
	State   *EncodedState
	Forward *Forward
	Action  int
}

// Policy adapts an Agent to the simulator's Policy interface.
//
// In greedy mode it picks the argmax action; otherwise it samples from the
// policy distribution using Rng (training behaviour). When Record is true,
// every decision's Forward pass and action are appended to Steps so the A2C
// trainer can compute losses after the episode terminates.
type Policy struct {
	Agent *Agent
	// Rng drives action sampling; required unless Greedy.
	Rng *rand.Rand
	// Greedy selects argmax actions (evaluation mode).
	Greedy bool
	// Temperature, when positive and Greedy is false, sharpens the sampling
	// distribution (pᵢ ∝ exp(log πᵢ/τ)). Ignored in Greedy mode.
	Temperature float64
	// Record keeps per-decision tapes for training.
	Record bool
	// DisableIdle masks the ∅ action at every decision (ablation: READYS
	// reduced to a pure list scheduler that must fill the asking resource).
	DisableIdle bool
	// Steps holds the recorded decisions of the current episode.
	Steps []Step

	// InferenceTime accumulates wall-clock time spent in Forward (used for
	// the Figure 7 experiment) and InferenceCount the number of decisions.
	InferenceTime  time.Duration
	InferenceCount int

	// desc holds the current graph's descendant features, extended in place
	// on streaming arrivals.
	desc taskgraph.DescendantSummary

	// inc maintains the decision state incrementally on the non-recording
	// path; nil falls back to EncodeFault on every decision. engine, when set,
	// replaces the tape forward with the float64 serving engine.
	inc    *incrementalEncoder
	engine *serveEngine
	memo   map[memoKey]memoVal
	noMemo bool
}

// memoKey identifies a decision state up to forward-pass equivalence: within
// one (NumDone, FaultEpoch, GraphEpoch) version, task starts are the only
// mutations and they move exactly one task from Ready to Running, so the
// counts pin the window contents; Now and the asking resource's type and
// speed pin the remaining features. Two decisions with equal keys see
// bit-identical EncodedStates and hence identical log-probabilities.
type memoKey struct {
	numDone, faultEpoch, graphEpoch int
	numRunning, numReady            int
	nowBits, speedBits              uint64
	isCPU, allowIdle                bool
}

type memoVal struct {
	logProbs []float64
	idleIdx  int
}

// NewPolicy returns an evaluation-mode (greedy) policy for the agent. The
// decision state is maintained incrementally and the forward pass runs on the
// allocation-free float64 serving engine — both bit-identical to the full
// rebuild + tape path (see the equivalence tests) and individually revertible
// via DisableIncrementalState / DisableServingEngine. The DenseProp ablation
// keeps the tape forward (the engine only implements the sparse hot path).
func NewPolicy(agent *Agent) *Policy {
	p := &Policy{Agent: agent, Greedy: true}
	p.inc = newIncrementalEncoder(agent.Cfg.Window, agent.Cfg.Directed, agent.Cfg.FaultFeatures)
	if !agent.Cfg.DenseProp {
		p.engine = newServeEngine(agent)
	}
	return p
}

// NewServingPolicy returns NewPolicy(agent): the float64 serving engine is the
// only inference path, so prec must be PrecisionFloat64 and is otherwise
// ignored. It remains so callers written against the earlier multi-tier API
// (the perfbench harness) keep compiling; new code calls NewPolicy.
func NewServingPolicy(agent *Agent, prec Precision) *Policy {
	return NewPolicy(agent)
}

// NewTrainingPolicy returns a sampling, recording policy for the agent.
// Training always runs the float64 tape path with full state rebuilds.
func NewTrainingPolicy(agent *Agent, rng *rand.Rand) *Policy {
	return &Policy{Agent: agent, Rng: rng, Record: true}
}

// DisableIncrementalState forces a full EncodeFault rebuild on every decision
// (the incremental path's oracle; also what training uses).
func (p *Policy) DisableIncrementalState() { p.inc = nil }

// DisableDecisionMemo turns off within-round forward memoization.
func (p *Policy) DisableDecisionMemo() { p.noMemo = true }

// DisableServingEngine reverts the forward pass to the autograd tape.
// Combined with DisableIncrementalState and DisableDecisionMemo this
// reproduces the pre-optimization decision path exactly — the oracle
// configuration for equivalence tests and benchmarks.
func (p *Policy) DisableServingEngine() { p.engine = nil }

// IncrementalStats reports the incremental encoder's work counters (zero
// value when the incremental path is disabled).
func (p *Policy) IncrementalStats() IncrementalStats {
	if p.inc == nil {
		return IncrementalStats{}
	}
	return p.inc.stats
}

// FeatureStats reports how the descendant features were kept up to date:
// full recomputes (one per Reset unless a fallback fires) and rows appended
// on streaming arrivals.
func (p *Policy) FeatureStats() taskgraph.DescendantStats { return p.desc.Stats() }

// Reset implements sim.Policy: it precomputes the DAG's descendant features
// and clears the episode recording, the incremental state, and the decision
// memo.
func (p *Policy) Reset(s *sim.State) {
	p.desc.Reset()
	p.desc.Update(s.Graph)
	p.Steps = p.Steps[:0]
	if p.inc != nil {
		p.inc.reset()
	}
	for k := range p.memo {
		delete(p.memo, k)
	}
}

// Decide implements sim.Policy.
func (p *Policy) Decide(s *sim.State, r int) int {
	// After a streaming job arrival this extends the descendant features by
	// the job's tasks; otherwise (and always on single DAGs) it is a no-op.
	p.desc.Update(s.Graph)
	if p.Record {
		if p.engine != nil {
			panic("core: serving engine on a recording (training) policy")
		}
		return p.decideTape(s, r)
	}

	var es *EncodedState
	if p.inc != nil {
		es = p.inc.Encode(s, r, &p.desc)
	} else {
		es = EncodeFault(s, r, p.desc.Features(), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	}
	if p.DisableIdle {
		es.AllowIdle = false
	}

	var key memoKey
	if !p.noMemo {
		key = memoKey{
			numDone:    s.NumDone,
			faultEpoch: s.FaultEpoch,
			graphEpoch: s.GraphEpoch,
			numRunning: len(s.Running),
			numReady:   len(s.Ready),
			nowBits:    math.Float64bits(s.Now),
			speedBits:  math.Float64bits(s.SpeedFactor(r)),
			isCPU:      s.Platform.Resources[r].Type == platform.CPU,
			allowIdle:  es.AllowIdle,
		}
		if v, ok := p.memo[key]; ok {
			p.InferenceCount++
			return p.act(es, v.logProbs, v.idleIdx)
		}
	}

	start := time.Now()
	var logProbs []float64
	var idleIdx int
	if p.engine != nil {
		logProbs, idleIdx = p.engine.forward(es)
	} else {
		fw := p.Agent.Forward(es)
		logProbs = fw.LogProbs.Value.Data[:fw.NumActions]
		idleIdx = fw.IdleIndex
		// Copy out of the tape before releasing its buffers to the pool.
		logProbs = append([]float64(nil), logProbs...)
		fw.Binding.Release()
	}
	p.InferenceTime += time.Since(start)
	p.InferenceCount++

	if p.noMemo {
		return p.act(es, logProbs, idleIdx)
	}
	if p.memo == nil {
		p.memo = make(map[memoKey]memoVal)
	}
	stored := append([]float64(nil), logProbs...)
	p.memo[key] = memoVal{logProbs: stored, idleIdx: idleIdx}
	return p.act(es, stored, idleIdx)
}

// act picks an action from the log-probabilities and maps it to a task.
func (p *Policy) act(es *EncodedState, logProbs []float64, idleIdx int) int {
	var action int
	switch {
	case p.Greedy:
		action = argmaxLogProbs(logProbs)
	case p.Temperature > 0:
		action = sampleTemperatureLogProbs(p.Rng, logProbs, p.Temperature)
	default:
		action = sampleLogProbs(p.Rng, logProbs)
	}
	if action == idleIdx && idleIdx >= 0 {
		return sim.NoTask
	}
	return es.ReadyTasks[action]
}

// decideTape is the original tape-forward path used for training: the full
// EncodeFault rebuild, the autograd forward, and step recording.
func (p *Policy) decideTape(s *sim.State, r int) int {
	es := EncodeFault(s, r, p.desc.Features(), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	if p.DisableIdle {
		es.AllowIdle = false
	}
	start := time.Now()
	fw := p.Agent.Forward(es)
	p.InferenceTime += time.Since(start)
	p.InferenceCount++

	var action int
	switch {
	case p.Greedy:
		action = fw.Argmax()
	case p.Temperature > 0:
		action = fw.SampleTemperature(p.Rng, p.Temperature)
	default:
		action = fw.Sample(p.Rng)
	}
	idleIdx := fw.IdleIndex
	p.Steps = append(p.Steps, Step{State: es, Forward: fw, Action: action})
	if action == idleIdx && idleIdx >= 0 {
		return sim.NoTask
	}
	return es.ReadyTasks[action]
}

// SaveCheckpoint writes the agent's parameters and architecture metadata.
func (a *Agent) SaveCheckpoint(path string, meta map[string]string) error {
	m := map[string]string{
		"window": strconv.Itoa(a.Cfg.Window),
		"layers": strconv.Itoa(a.Cfg.Layers),
		"hidden": strconv.Itoa(a.Cfg.Hidden),
	}
	if a.Cfg.FaultFeatures {
		// Written only when set, so flag-off checkpoints stay byte-identical
		// to ones produced before the flag existed.
		m["fault_features"] = "1"
	}
	for k, v := range meta {
		m[k] = v
	}
	return nn.SaveCheckpointFile(path, a.params, m)
}

// LoadCheckpoint restores the agent's parameters from a checkpoint produced
// by SaveCheckpoint; the architecture (window/layers/hidden) must match.
func (a *Agent) LoadCheckpoint(path string) (map[string]string, error) {
	return nn.LoadCheckpointFile(path, a.params)
}

// MeanEntropy returns the average policy entropy over the recorded steps —
// a diagnostic of exploration during training.
func (p *Policy) MeanEntropy() float64 {
	if len(p.Steps) == 0 {
		return 0
	}
	var s float64
	for _, st := range p.Steps {
		s += autograd.Scalar(st.Forward.Entropy())
	}
	return s / float64(len(p.Steps))
}
