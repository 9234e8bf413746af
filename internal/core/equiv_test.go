package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// assertStatesEqual requires two encodings of the same decision to be
// bitwise identical in every field the forward pass reads.
func assertStatesEqual(t *testing.T, want, got *EncodedState, ctx string) {
	t.Helper()
	if !intsEqual(want.Nodes, got.Nodes) {
		t.Fatalf("%s: nodes differ: %v vs %v", ctx, want.Nodes, got.Nodes)
	}
	if want.X.Rows != got.X.Rows || want.X.Cols != got.X.Cols {
		t.Fatalf("%s: X shape %dx%d vs %dx%d", ctx, want.X.Rows, want.X.Cols, got.X.Rows, got.X.Cols)
	}
	for i := range want.X.Data {
		if math.Float64bits(want.X.Data[i]) != math.Float64bits(got.X.Data[i]) {
			t.Fatalf("%s: X[%d] = %v vs %v", ctx, i, want.X.Data[i], got.X.Data[i])
		}
	}
	if !intsEqual(want.Norm.RowPtr, got.Norm.RowPtr) || !intsEqual(want.Norm.Col, got.Norm.Col) {
		t.Fatalf("%s: adjacency structure differs", ctx)
	}
	for i := range want.Norm.Val {
		if math.Float64bits(want.Norm.Val[i]) != math.Float64bits(got.Norm.Val[i]) {
			t.Fatalf("%s: norm val[%d] = %v vs %v", ctx, i, want.Norm.Val[i], got.Norm.Val[i])
		}
	}
	if !intsEqual(want.ReadyRows, got.ReadyRows) || !intsEqual(want.ReadyTasks, got.ReadyTasks) {
		t.Fatalf("%s: ready sets differ: %v/%v vs %v/%v", ctx, want.ReadyRows, want.ReadyTasks, got.ReadyRows, got.ReadyTasks)
	}
	for i := range want.Proc.Data {
		if math.Float64bits(want.Proc.Data[i]) != math.Float64bits(got.Proc.Data[i]) {
			t.Fatalf("%s: proc[%d] = %v vs %v", ctx, i, want.Proc.Data[i], got.Proc.Data[i])
		}
	}
	if want.AllowIdle != got.AllowIdle {
		t.Fatalf("%s: AllowIdle %v vs %v", ctx, want.AllowIdle, got.AllowIdle)
	}
}

// encodeProbe wraps a policy and, at every decision, checks the incremental
// encoding against the EncodeFault oracle before delegating.
type encodeProbe struct {
	t     *testing.T
	inner *Policy
	ctx   string
	n     int
}

func (pp *encodeProbe) Reset(s *sim.State) { pp.inner.Reset(s) }

func (pp *encodeProbe) Decide(s *sim.State, r int) int {
	p := pp.inner
	oracle := EncodeFault(s, r, taskgraph.DescendantFeatures(s.Graph), p.Agent.Cfg.Window, p.Agent.Cfg.Directed, p.Agent.Cfg.FaultFeatures)
	p.desc.Update(s.Graph)
	inc := p.inc.Encode(s, r, &p.desc)
	assertStatesEqual(pp.t, oracle, inc, fmt.Sprintf("%s decision %d", pp.ctx, pp.n))
	pp.n++
	return p.Decide(s, r)
}

// TestIncrementalEncodeBitIdentical sweeps problem kinds, fault injection,
// duration noise, the directed operator, and fault features, asserting the
// incremental encoder reproduces EncodeFault bit for bit at every single
// decision of full episodes.
func TestIncrementalEncodeBitIdentical(t *testing.T) {
	kinds := []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR}
	for _, kind := range kinds {
		for _, faults := range []bool{false, true} {
			for _, directed := range []bool{false, true} {
				for _, ff := range []bool{false, true} {
					cfg := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 3, Directed: directed, FaultFeatures: ff}
					agent := NewAgent(cfg)
					prob := NewProblem(kind, 6, 2, 2, 0.1)
					if faults {
						prob.Faults = sim.SpecForRate(1.5, 0)
					}
					pol := NewPolicy(agent)
					ctx := fmt.Sprintf("%v faults=%v directed=%v ff=%v", kind, faults, directed, ff)
					probe := &encodeProbe{t: t, inner: pol, ctx: ctx}
					if _, err := prob.Simulate(probe, rand.New(rand.NewSource(17))); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if probe.n == 0 {
						t.Fatalf("%s: no decisions probed", ctx)
					}
					st := pol.IncrementalStats()
					if st.Rebuilds == 0 || st.Rebuilds >= st.Decisions {
						t.Fatalf("%s: implausible incremental stats %+v", ctx, st)
					}
				}
			}
		}
	}
}

// TestIncrementalResultIdentical runs whole episodes twice — incremental+memo
// against the pre-optimization oracle path (full rebuild, no memo) — and
// requires identical sim.Results, under faults and noise, greedy and
// sampling.
func TestIncrementalResultIdentical(t *testing.T) {
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU} {
		for _, faults := range []bool{false, true} {
			for _, greedy := range []bool{true, false} {
				cfg := Config{Window: 2, Layers: 2, Hidden: 16, Seed: 5}
				agent := NewAgent(cfg)
				prob := NewProblem(kind, 6, 2, 2, 0.15)
				if faults {
					prob.Faults = sim.SpecForRate(1.0, 0)
				}

				fast := NewPolicy(agent)
				slow := NewPolicy(agent)
				slow.DisableIncrementalState()
				slow.DisableDecisionMemo()
				slow.DisableServingEngine()
				if !greedy {
					fast.Greedy, fast.Rng = false, rand.New(rand.NewSource(7))
					slow.Greedy, slow.Rng = false, rand.New(rand.NewSource(7))
				}

				ra, err := prob.Simulate(fast, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				rb, err := prob.Simulate(slow, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("%v faults=%v greedy=%v", kind, faults, greedy)
				if ra.Makespan != rb.Makespan || ra.Decisions != rb.Decisions || ra.IdleDecisions != rb.IdleDecisions {
					t.Fatalf("%s: results diverge: %+v vs %+v", ctx, ra, rb)
				}
				if len(ra.Trace) != len(rb.Trace) {
					t.Fatalf("%s: trace lengths differ", ctx)
				}
				for i := range ra.Trace {
					if ra.Trace[i] != rb.Trace[i] {
						t.Fatalf("%s: trace[%d] %+v vs %+v", ctx, i, ra.Trace[i], rb.Trace[i])
					}
				}
			}
		}
	}
}

// TestServingF64BitIdenticalToTape requires the float64 serving engine to
// reproduce the tape forward's log-probabilities bit for bit on every
// decision of a faulted episode, both as encoded and with the ∅ action masked
// (AllowIdle=false, the states DisableIdle produces).
func TestServingF64BitIdenticalToTape(t *testing.T) {
	for _, ff := range []bool{false, true} {
		agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 9, FaultFeatures: ff})
		prob := NewProblem(taskgraph.Cholesky, 6, 2, 2, 0.1)
		prob.Faults = sim.SpecForRate(1.0, 0)
		engine := newServeEngine(agent)
		pol := NewPolicy(agent)
		n, masked := 0, 0
		compare := func(es *EncodedState, ctx string) {
			fw := agent.Forward(es)
			lp, idleIdx := engine.forward(es)
			if idleIdx != fw.IdleIndex || len(lp) != fw.NumActions {
				t.Fatalf("%s: action space %d/%d vs %d/%d", ctx, len(lp), idleIdx, fw.NumActions, fw.IdleIndex)
			}
			for i := range lp {
				if math.Float64bits(lp[i]) != math.Float64bits(fw.LogProbs.Value.Data[i]) {
					t.Fatalf("%s: logprob[%d] = %v vs tape %v", ctx, i, lp[i], fw.LogProbs.Value.Data[i])
				}
			}
			fw.Binding.Release()
		}
		probe := policyFunc{
			reset: pol.Reset,
			decide: func(s *sim.State, r int) int {
				es := EncodeFault(s, r, pol.desc.Features(), agent.Cfg.Window, agent.Cfg.Directed, agent.Cfg.FaultFeatures)
				compare(es, fmt.Sprintf("ff=%v decision %d", ff, n))
				if es.AllowIdle {
					es.AllowIdle = false
					compare(es, fmt.Sprintf("ff=%v decision %d idle masked", ff, n))
					masked++
				}
				n++
				return pol.Decide(s, r)
			},
		}
		if _, err := prob.Simulate(probe, rand.New(rand.NewSource(31))); err != nil {
			t.Fatal(err)
		}
		if n == 0 || masked == 0 {
			t.Fatalf("ff=%v: compared %d decisions, %d idle-masked", ff, n, masked)
		}
	}
}

// TestServingPolicyResultIdentical pins the end-to-end contract serve relies
// on: the serving policy (engine + incremental + memo) schedules exactly like
// the oracle tape policy, with the ∅ action allowed and with it masked.
func TestServingPolicyResultIdentical(t *testing.T) {
	agent := NewAgent(Config{Window: 2, Layers: 2, Hidden: 16, Seed: 11})
	prob := NewProblem(taskgraph.QR, 6, 2, 2, 0.1)
	prob.Faults = sim.SpecForRate(1.0, 0)

	for _, disableIdle := range []bool{false, true} {
		serving := NewPolicy(agent)
		oracle := NewPolicy(agent)
		oracle.DisableIncrementalState()
		oracle.DisableDecisionMemo()
		oracle.DisableServingEngine()
		serving.DisableIdle, oracle.DisableIdle = disableIdle, disableIdle

		ra, err := prob.Simulate(serving, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := prob.Simulate(oracle, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		if ra.Makespan != rb.Makespan || len(ra.Trace) != len(rb.Trace) {
			t.Fatalf("disableIdle=%v: serving diverged from tape: %+v vs %+v", disableIdle, ra, rb)
		}
		for i := range ra.Trace {
			if ra.Trace[i] != rb.Trace[i] {
				t.Fatalf("disableIdle=%v: trace[%d]: %+v vs %+v", disableIdle, i, ra.Trace[i], rb.Trace[i])
			}
		}
		if disableIdle && ra.IdleDecisions != 0 {
			t.Fatalf("DisableIdle policy took %d idle decisions", ra.IdleDecisions)
		}
	}
}

// TestServingNeverInTraining pins the guard: a policy on the serving engine
// with Record set must panic in Decide rather than feed the trainer
// tapeless decisions.
func TestServingNeverInTraining(t *testing.T) {
	agent := NewAgent(Config{Window: 1, Layers: 1, Hidden: 8, Seed: 2})
	for name, p := range map[string]*Policy{
		"NewPolicy":        NewPolicy(agent),
		"NewServingPolicy": NewServingPolicy(agent, PrecisionFloat64),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Decide on a recording serving policy did not panic", name)
				}
			}()
			p.Record = true
			prob := NewProblem(taskgraph.Cholesky, 4, 1, 1, 0)
			_, _ = prob.Simulate(p, rand.New(rand.NewSource(1)))
		}()
	}
}

// policyFunc adapts two closures to sim.Policy for probing tests.
type policyFunc struct {
	reset  func(*sim.State)
	decide func(*sim.State, int) int
}

func (p policyFunc) Reset(s *sim.State)             { p.reset(s) }
func (p policyFunc) Decide(s *sim.State, r int) int { return p.decide(s, r) }
