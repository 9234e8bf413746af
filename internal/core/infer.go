package core

import (
	"math"

	"readys/internal/tensor"
)

// Precision names the numeric tier of the serving forward path. float64 is
// the only tier; the type remains so callers of NewServingPolicy (the
// perfbench harness) keep compiling.
type Precision int

// PrecisionFloat64 is the float64 serving engine, bit-identical to the tape.
const PrecisionFloat64 Precision = 0

// serveEngine evaluates the agent's policy head without the autograd tape:
// preallocated scratch and no per-decision allocations. It reproduces
// Agent.Forward's log-probabilities bit for bit (same kernels, same operation
// order). The critic is skipped — serving only needs the action distribution.
type serveEngine struct {
	agent *Agent

	h, tmp, ready, cat, score tensor.Matrix
	argBuf                    []int

	logits   []float64
	logProbs []float64
}

// newServeEngine builds an engine for the agent. The engine reads the agent's
// parameters; it never writes them.
func newServeEngine(a *Agent) *serveEngine {
	if a.Cfg.DenseProp {
		// The engine only implements the sparse propagation hot path; the
		// dense ablation keeps the tape forward.
		panic("core: serving engine does not support DenseProp")
	}
	return &serveEngine{agent: a}
}

// forward computes the log-probabilities over the state's actions. The
// returned slice is engine-owned and valid until the next call.
func (en *serveEngine) forward(es *EncodedState) (logProbs []float64, idleIdx int) {
	if len(es.ReadyRows) == 0 {
		panic("core: serving forward with no ready task")
	}
	en.logitsInto(es)

	k := len(en.logits)
	if cap(en.logProbs) < k {
		en.logProbs = make([]float64, k)
	}
	en.logProbs = en.logProbs[:k]
	logSoftmaxInto(en.logits, en.logProbs)
	idleIdx = -1
	if es.AllowIdle {
		idleIdx = len(es.ReadyRows)
	}
	return en.logProbs, idleIdx
}

// logitsInto computes the action scores into en.logits, mirroring
// Agent.Forward operation by operation on the shared float64 kernels; see the
// bit-identity test against the tape forward.
func (en *serveEngine) logitsInto(es *EncodedState) {
	a := en.agent
	n, hid := len(es.Nodes), a.Cfg.Hidden

	// h = ReLU(X*W_in + b_in)
	resizeMatrix(&en.h, n, hid)
	tensor.MatMulInto(es.X, a.input.W.Value, &en.h)
	tensor.AddRowVectorInto(&en.h, a.input.B.Value, &en.h)
	reluInPlace(en.h.Data)

	// GCN stack: h = ReLU(SpMM(norm, h)*W + b)
	resizeMatrix(&en.tmp, n, hid)
	for _, g := range a.gcn {
		tensor.SpMMInto(es.Norm, &en.h, &en.tmp)
		tensor.MatMulInto(&en.tmp, g.W.Value, &en.h)
		tensor.AddRowVectorInto(&en.h, g.B.Value, &en.h)
		reluInPlace(en.h.Data)
	}

	// Actor scores for the ready rows.
	nActions := len(es.ReadyRows)
	if es.AllowIdle {
		nActions++
	}
	if cap(en.logits) < nActions {
		en.logits = make([]float64, nActions)
	}
	en.logits = en.logits[:nActions]
	resizeMatrix(&en.ready, len(es.ReadyRows), hid)
	tensor.GatherRowsInto(&en.h, es.ReadyRows, &en.ready)
	resizeMatrix(&en.score, len(es.ReadyRows), 1)
	tensor.MatMulInto(&en.ready, a.actor.W.Value, &en.score)
	tensor.AddRowVectorInto(&en.score, a.actor.B.Value, &en.score)
	copy(en.logits, en.score.Data)

	if es.AllowIdle {
		// ∅ score: [ReLU(proc*W_p + b_p) | maxpool(h)] * W_idle + b_idle.
		resizeMatrix(&en.cat, 1, 2*hid)
		procEmb := tensor.Matrix{Rows: 1, Cols: hid, Data: en.cat.Data[:hid]}
		tensor.MatMulInto(es.Proc, a.proc.W.Value, &procEmb)
		tensor.AddRowVectorInto(&procEmb, a.proc.B.Value, &procEmb)
		reluInPlace(procEmb.Data)
		pooled := tensor.Matrix{Rows: 1, Cols: hid, Data: en.cat.Data[hid:]}
		if cap(en.argBuf) < hid {
			en.argBuf = make([]int, hid)
		}
		tensor.MaxRowsInto(&en.h, &pooled, en.argBuf[:hid])
		resizeMatrix(&en.score, 1, 1)
		tensor.MatMulInto(&en.cat, a.idle.W.Value, &en.score)
		en.logits[nActions-1] = en.score.Data[0] + a.idle.B.Value.Data[0]
	}
}

// logSoftmaxInto writes the log-softmax of logits into dst (len(dst) ==
// len(logits)), replicating autograd.LogSoftmaxCol in float64.
func logSoftmaxInto(logits, dst []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - maxv)
	}
	logZ := maxv + math.Log(sum)
	for i, v := range logits {
		dst[i] = v - logZ
	}
}

func reluInPlace(xs []float64) {
	for i, v := range xs {
		if v > 0 {
			continue
		}
		xs[i] = 0
	}
}
