// readys-bench measures the hot-path performance of this repository and
// writes the results as a JSON snapshot (BENCH_<rev>.json by default), so the
// perf trajectory of the codebase is tracked in-tree alongside the code.
//
// Four groups are reported:
//
//   - spmm: sparse CSR propagation vs the dense n x n baseline at GCN shapes
//     (ns/op and allocs/op via testing.Benchmark),
//   - decide: scheduling decisions per second on the full-rebuild tape oracle
//     and on the serving policy (incremental state, memo, float64 engine),
//   - train: training episodes per second on a Cholesky batch, sparse vs the
//     DenseProp ablation and rollout workers 1 vs GOMAXPROCS,
//   - stream: online multi-tenant scheduling throughput — whole Poisson job
//     streams through stream.Run, as wall-clock jobs/sec per policy.
//
// With -compare BENCH_old.json the run becomes a perf-regression gate: the
// current numbers are diffed against the committed snapshot on config-matched
// rows (spmm by n, decide by kind, T and pipeline, train by kind and T,
// stream by policy and jobs — baselines predating a section skip it), a
// per-metric delta table is printed, and the process exits non-zero when any
// key metric — spmm ns/op, ns_per_decision, train eps/sec, or
// stream_jobs_per_sec — regressed beyond the tolerance (-tol, or the
// BENCH_TOL environment variable, default 20%). Rows the baseline lacks are
// reported as skipped, so an old snapshot still gates what it covers.
//
// Usage:
//
//	readys-bench                  # full run, writes BENCH_<rev>.json
//	readys-bench -quick           # smoke run (make bench-smoke)
//	readys-bench -T 8 -out bench.json
//	readys-bench -quick -compare BENCH_b7783c0.json   # make bench-compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/nn"
	"readys/internal/platform"
	"readys/internal/rl"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
	"readys/internal/tensor"
)

type spmmResult struct {
	N            int     `json:"n"`
	Hidden       int     `json:"hidden"`
	NNZ          int     `json:"nnz"`
	SparseNsOp   int64   `json:"sparse_ns_op"`
	DenseNsOp    int64   `json:"dense_ns_op"`
	Speedup      float64 `json:"speedup"`
	SparseAllocs int64   `json:"sparse_allocs_op"`
	DenseAllocs  int64   `json:"dense_allocs_op"`
}

type decideResult struct {
	Kind string `json:"kind"`
	T    int    `json:"T"`
	// Path and Precision identify the decision pipeline of the row:
	// "rebuild" (full EncodeFault + tape on every decision, the oracle) or
	// "serving" (core.NewPolicy: incremental state, decision memo and the
	// float64 engine). Precision is always "float64"; it stays in the key so
	// these rows keep matching the labeled rows of older snapshots, whose
	// unlabeled default and float32/int8 rows now skip.
	Path            string  `json:"path,omitempty"`
	Precision       string  `json:"precision,omitempty"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	NsPerDecision   int64   `json:"ns_per_decision"`
	AllocsPerOp     int64   `json:"allocs_per_decision"`
	BytesPerOp      int64   `json:"bytes_per_decision"`
}

type trainResult struct {
	Kind              string  `json:"kind"`
	T                 int     `json:"T"`
	Episodes          int     `json:"episodes"`
	BatchEpisodes     int     `json:"batch_episodes"`
	SparseEpsPerSec   float64 `json:"sparse_eps_per_sec"`
	DenseEpsPerSec    float64 `json:"dense_eps_per_sec"`
	SparseVsDense     float64 `json:"sparse_vs_dense_speedup"`
	Workers           int     `json:"workers"`
	Workers1EpsPerSec float64 `json:"workers1_eps_per_sec"`
	WorkersNEpsPerSec float64 `json:"workersN_eps_per_sec"`
	WorkersSpeedup    float64 `json:"workers_speedup"`
}

type streamResult struct {
	Policy      string  `json:"policy"`
	Jobs        int     `json:"jobs"`
	Tasks       int     `json:"tasks"`
	JobsPerSec  float64 `json:"stream_jobs_per_sec"`
	TasksPerSec float64 `json:"tasks_per_sec"`
}

// retiredBatchedRow is the identity of a row of the batched section
// (concurrent clients through the removed cross-request batcher). Current
// runs produce none; older baselines still carry them, and -compare reports
// each as skipped.
type retiredBatchedRow struct {
	Clients int  `json:"clients"`
	Batched bool `json:"batched"`
}

type report struct {
	Rev        string              `json:"rev"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu"`
	Generated  string              `json:"generated"`
	Quick      bool                `json:"quick"`
	SpMM       []spmmResult        `json:"spmm"`
	Decide     []decideResult      `json:"decide"`
	Train      []trainResult       `json:"train"`
	Stream     []streamResult      `json:"stream"`
	Batched    []retiredBatchedRow `json:"batched,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", "", "output path (default BENCH_<rev>.json; with -compare: only written when set)")
		tiles      = flag.Int("T", 8, "Cholesky tile count for the decide and training benchmarks")
		quick      = flag.Bool("quick", false, "smoke mode: tiny sizes, a few episodes (CI)")
		compare    = flag.String("compare", "", "baseline BENCH_*.json to gate against; exit 1 on regression")
		tol        = flag.Float64("tol", 0, "regression tolerance as a fraction (default $BENCH_TOL, else 0.20)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	rev := gitRev()
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rev)
	}

	rep := report{
		Rev:        rev,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Quick:      *quick,
	}

	sizes := []int{128, 256}
	if *quick {
		sizes = []int{128}
	}
	for _, n := range sizes {
		rep.SpMM = append(rep.SpMM, benchSpMM(n, 64))
		fmt.Printf("spmm n=%d: sparse %d ns/op, dense %d ns/op (%.1fx)\n",
			n, rep.SpMM[len(rep.SpMM)-1].SparseNsOp, rep.SpMM[len(rep.SpMM)-1].DenseNsOp,
			rep.SpMM[len(rep.SpMM)-1].Speedup)
	}

	// decide follows -T even in quick mode so a quick gate run produces rows
	// matching the committed full-run baseline (which benches decide at T=8).
	decT := *tiles
	for _, v := range decideVariants() {
		r := benchDecide(decT, v)
		rep.Decide = append(rep.Decide, r)
		fmt.Printf("decide T=%d %s/float64: %.0f decisions/sec (%d ns, %d allocs per decision)\n",
			decT, v.path, r.DecisionsPerSec, r.NsPerDecision, r.AllocsPerOp)
	}

	trainTs := []int{*tiles}
	if !*quick && *tiles < 16 {
		// Large tiles make window-3 sub-DAGs big enough that propagation
		// dominates the episode cost, which is where sparsity pays off most.
		trainTs = append(trainTs, 16)
	}
	for _, tt := range trainTs {
		tr := benchTrain(tt, *quick)
		rep.Train = append(rep.Train, tr)
		fmt.Printf("train T=%d: sparse %.2f eps/sec vs dense %.2f eps/sec (%.1fx); workers %d: %.2f eps/sec vs 1 worker %.2f eps/sec (%.2fx)\n",
			tr.T, tr.SparseEpsPerSec, tr.DenseEpsPerSec, tr.SparseVsDense,
			tr.Workers, tr.WorkersNEpsPerSec, tr.Workers1EpsPerSec, tr.WorkersSpeedup)
	}

	streamJobs := 20
	if *quick {
		streamJobs = 8
	}
	for _, sr := range benchStream(streamJobs) {
		rep.Stream = append(rep.Stream, sr)
		fmt.Printf("stream %s: %.1f jobs/sec (%.0f tasks/sec, %d jobs of %d tasks)\n",
			sr.Policy, sr.JobsPerSec, sr.TasksPerSec, sr.Jobs, sr.Tasks)
	}

	// In gate mode the snapshot is only written when -out names a path:
	// the point of -compare is judging against the committed trajectory,
	// not growing a new BENCH_<rev>.json per CI run.
	if *compare == "" || *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	if *compare != "" {
		base, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatal(err)
		}
		var old report
		if err := json.Unmarshal(base, &old); err != nil {
			log.Fatalf("%s: %v", *compare, err)
		}
		t := resolveTol(*tol, os.Getenv("BENCH_TOL"))
		rows, skipped, regressed := compareReports(old, rep, t)
		if len(rows) == 0 {
			log.Fatalf("%s: no rows match the current run's configs", *compare)
		}
		fmt.Println()
		printComparison(os.Stdout, *compare, rows, skipped, t)
		if regressed {
			log.Fatalf("perf regression: worst delta %+.1f%% exceeds %.0f%% tolerance", 100*worstDelta(rows), 100*t)
		}
		fmt.Printf("perf gate passed: worst delta %+.1f%% within %.0f%% tolerance\n", 100*worstDelta(rows), 100*t)
	}
}

// resolveTol picks the regression tolerance: the -tol flag when set, else the
// BENCH_TOL environment variable, else 0.20.
func resolveTol(flagTol float64, env string) float64 {
	if flagTol > 0 {
		return flagTol
	}
	if env != "" {
		if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
			return v
		}
		log.Fatalf("bad BENCH_TOL %q: want a positive fraction like 0.20", env)
	}
	return 0.20
}

// gitRev returns the short commit hash, or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// benchSpMM compares CSR propagation against the dense baseline on a
// DAG-shaped operator (chain plus skip edges, like a factorisation sub-DAG).
func benchSpMM(n, hidden int) spmmResult {
	rng := rand.New(rand.NewSource(1))
	succ := make([][]int, n)
	for i := 0; i+1 < n; i++ {
		succ[i] = append(succ[i], i+1)
		if j := i + 7; j < n {
			succ[i] = append(succ[i], j)
		}
	}
	sp := nn.NormalizedAdjacency(n, succ)
	dn := sp.Dense()
	x := tensor.RandNormal(rng, n, hidden, 1)

	sparseRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		out := tensor.New(n, hidden)
		for i := 0; i < b.N; i++ {
			tensor.SpMMInto(sp, x, out)
		}
	})
	denseRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		out := tensor.New(n, hidden)
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dn, x, out)
		}
	})
	return spmmResult{
		N:            n,
		Hidden:       hidden,
		NNZ:          sp.NNZ(),
		SparseNsOp:   sparseRes.NsPerOp(),
		DenseNsOp:    denseRes.NsPerOp(),
		Speedup:      float64(denseRes.NsPerOp()) / float64(sparseRes.NsPerOp()),
		SparseAllocs: sparseRes.AllocsPerOp(),
		DenseAllocs:  denseRes.AllocsPerOp(),
	}
}

// decideVariant names one decision pipeline for the decide benchmark.
type decideVariant struct {
	path string // "rebuild" or "serving"
	mk   func(agent *core.Agent) *core.Policy
}

// decideVariants enumerates the benched pipelines: the full-rebuild tape
// oracle and the serving policy. They decide bit-identically (see the core
// equivalence tests) — the rows differ only in speed.
func decideVariants() []decideVariant {
	return []decideVariant{
		{"rebuild", func(a *core.Agent) *core.Policy {
			p := core.NewPolicy(a)
			p.DisableIncrementalState()
			p.DisableDecisionMemo()
			p.DisableServingEngine()
			return p
		}},
		{"serving", core.NewPolicy},
	}
}

// benchDecide measures single scheduling decisions on the given pipeline over
// full Cholesky episodes — the serve hot path.
func benchDecide(T int, v decideVariant) decideResult {
	spec := exp.DefaultAgentSpec(taskgraph.Cholesky, T, 2, 2)
	agent := core.NewAgent(spec.AgentConfig())
	problem := spec.Problem()
	pol := v.mk(agent)
	rng := rand.New(rand.NewSource(1))
	if _, err := problem.Simulate(pol, rng); err != nil {
		log.Fatalf("bench decide: %v", err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		r := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			if _, err := problem.Simulate(pol, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Decisions per simulated episode: every task placement is one decision;
	// idle decisions add more, so this undercounts slightly (conservative).
	decisions := len(problem.Graph.Tasks)
	nsPerDecision := res.NsPerOp() / int64(decisions)
	return decideResult{
		Kind:            "cholesky",
		T:               T,
		Path:            v.path,
		Precision:       "float64",
		DecisionsPerSec: 1e9 / float64(nsPerDecision),
		NsPerDecision:   nsPerDecision,
		AllocsPerOp:     res.AllocsPerOp() / int64(decisions),
		BytesPerOp:      res.AllocedBytesPerOp() / int64(decisions),
	}
}

// benchStream measures online-scheduling throughput: whole Poisson streams
// (mixed Cholesky/LU jobs on 2 CPUs + 2 GPUs) scheduled end to end through
// stream.Run, reported as wall-clock jobs/sec and tasks/sec per policy. The
// READYS row uses a fresh (untrained) default-architecture agent — inference
// cost does not depend on the weights.
func benchStream(jobs int) []streamResult {
	arrivals, err := stream.PoissonProcess{
		Rate: 8, Jobs: jobs,
		Kinds: []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU},
		Sizes: []int{2, 3},
	}.Generate(rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatalf("bench stream: %v", err)
	}
	tasks := 0
	for _, a := range arrivals {
		tasks += a.Graph().NumTasks()
	}
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	cases := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"mct", func() sim.Policy { return sched.MCTPolicy{} }},
		{"heft-per-job", func() sim.Policy { return stream.NewHEFTPerJobPolicy() }},
		{"readys", func() sim.Policy { return core.NewPolicy(agent) }},
	}
	out := make([]streamResult, 0, len(cases))
	for _, c := range cases {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stream.Run(c.mk(), stream.Config{
					Platform: platform.New(2, 2),
					Arrivals: arrivals,
					Sigma:    0.1,
					Rng:      rand.New(rand.NewSource(2)),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		secPerStream := float64(res.NsPerOp()) / 1e9
		out = append(out, streamResult{
			Policy:      c.name,
			Jobs:        jobs,
			Tasks:       tasks,
			JobsPerSec:  float64(jobs) / secPerStream,
			TasksPerSec: float64(tasks) / secPerStream,
		})
	}
	return out
}

// benchTrain measures training throughput (episodes/sec) on Cholesky T with
// the default agent spec: the sparse hot path vs the DenseProp ablation, and
// rollout workers 1 vs GOMAXPROCS.
func benchTrain(T int, quick bool) trainResult {
	episodes := 24
	if T >= 12 {
		episodes = 8 // episodes get much longer with T; 8 is ≥2 full batches
	}
	if quick {
		episodes = 8
	}
	cfg := rl.DefaultConfig()
	cfg.Seed = 1

	// Window 3 / Layers 3 / Hidden 64 sits at the top of the paper's search
	// space (w ∈ [0, 3], g ≥ w) and makes GCN propagation the dominant episode
	// cost, which is what this benchmark isolates.
	spec := exp.DefaultAgentSpec(taskgraph.Cholesky, T, 2, 2)
	spec.Window, spec.Layers, spec.Hidden = 3, 3, 64

	run := func(dense bool, workers, eps int) float64 {
		acfg := spec.AgentConfig()
		acfg.DenseProp = dense
		agent := core.NewAgent(acfg)
		c := cfg
		c.Episodes = eps
		c.RolloutWorkers = workers
		tr := rl.NewTrainer(agent, spec.Problem(), c)
		start := time.Now()
		if _, err := tr.Run(nil); err != nil {
			log.Fatalf("bench train: %v", err)
		}
		return float64(eps) / time.Since(start).Seconds()
	}

	// best-of-2 throughput: run-to-run variance (GC pacing, CPU frequency)
	// easily reaches tens of percent at these durations, and the max of two
	// runs is the standard low-noise estimator for a throughput benchmark.
	best := func(dense bool, workers int) float64 {
		a := run(dense, workers, episodes)
		if b := run(dense, workers, episodes); b > a {
			return b
		}
		return a
	}

	// Untimed warm-up: faults in the code paths, fills the buffer pools, and
	// lets CPU frequency settle so the first timed run is not penalised.
	run(false, 1, cfg.BatchEpisodes)

	sparseEps := best(false, 1)
	denseEps := best(true, 1)
	workers := runtime.GOMAXPROCS(0)
	workersN := best(false, workers)
	return trainResult{
		Kind:              "cholesky",
		T:                 T,
		Episodes:          episodes,
		BatchEpisodes:     cfg.BatchEpisodes,
		SparseEpsPerSec:   sparseEps,
		DenseEpsPerSec:    denseEps,
		SparseVsDense:     sparseEps / denseEps,
		Workers:           workers,
		Workers1EpsPerSec: sparseEps,
		WorkersNEpsPerSec: workersN,
		WorkersSpeedup:    workersN / sparseEps,
	}
}
