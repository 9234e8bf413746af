// readys-stream runs one online multi-tenant scheduling episode: jobs (DAGs
// of mixed families and sizes) arrive over simulated time on a persistent
// heterogeneous cluster, one policy schedules the union of their ready tasks,
// and the report is job-level — per-job response time and slowdown, mean/p99
// response, cluster utilization and queue depth. The union schedule is always
// checked with the strict fault-aware validator before anything is printed.
//
// Arrivals come from a Poisson process (-rate/-jobs/-job-kinds/-job-sizes,
// seeded by -arrival-seed) or from a JSONL trace (-arrivals; one
// {"at_ms": ..., "kind": ..., "size": ...} object per line). The generated
// stream can be exported with -write-arrivals for replay.
//
// Usage:
//
//	readys-stream -rate 4 -jobs 12 -policy mct -sigma 0.1
//	readys-stream -policy readys -models models
//	readys-stream -arrivals stream.jsonl -policy replan-heft -faults
//	readys-stream -rate 8 -jobs 20 -trace stream-trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"readys/internal/core"
	"readys/internal/exp"
	"readys/internal/obs"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/sim"
	"readys/internal/stream"
	"readys/internal/taskgraph"
)

func main() {
	var (
		arrivalsPath = flag.String("arrivals", "", "JSONL arrival trace to replay (overrides the Poisson flags)")
		rate         = flag.Float64("rate", 4, "Poisson arrival rate in jobs per second of simulated time")
		jobs         = flag.Int("jobs", 12, "number of job arrivals to generate")
		jobKinds     = flag.String("job-kinds", "cholesky,lu", "comma-separated DAG families of the job mix")
		jobSizes     = flag.String("job-sizes", "2,3", "comma-separated size parameters of the job mix")
		arrivalSeed  = flag.Int64("arrival-seed", 1, "seed of the Poisson arrival draw")
		cpus         = flag.Int("cpus", 2, "number of CPUs")
		gpus         = flag.Int("gpus", 2, "number of GPUs")
		sigma        = flag.Float64("sigma", 0.1, "duration noise level σ")
		policy       = flag.String("policy", "mct", "scheduler: readys, heft-per-job, replan-heft, mct, minmin, maxmin, fifo, random")
		models       = flag.String("models", exp.DefaultModelsDir(), "model directory (for -policy readys)")
		seed         = flag.Int64("seed", 1, "simulation seed (duration noise, resource shuffles)")
		faults       = flag.Bool("faults", false, "inject mid-stream faults from a seed-derived plan")
		faultRate    = flag.Float64("fault-rate", 1, "fault rate for -faults (events of each kind per resource, see sim.SpecForRate)")
		faultSeed    = flag.Int64("fault-seed", 0, "fault-plan seed for -faults (default: derived from -seed)")
		tracePath    = flag.String("trace", "", "write the stream (arrivals, slices, faults) as Chrome trace-event JSON to this path")
		metricsPath  = flag.String("metrics", "", "write the run's readys_stream_* metrics as Prometheus text exposition to this path ('-' for stdout)")
		flightPath   = flag.String("flight", "", "write the cluster flight recorder (arrivals, decisions, kills, faults, ready depth) as JSONL to this path")
		writeArr     = flag.String("write-arrivals", "", "write the (generated or replayed) arrival list as JSONL to this path")
		quiet        = flag.Bool("quiet", false, "suppress the per-job table")
	)
	flag.Parse()

	arrivals, err := loadArrivals(*arrivalsPath, *rate, *jobs, *jobKinds, *jobSizes, *arrivalSeed)
	if err != nil {
		log.Fatal(err)
	}
	plat := platform.New(*cpus, *gpus)

	var pol sim.Policy
	switch *policy {
	case "readys":
		agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
		if _, err := agent.LoadCheckpoint(exp.StreamAgentPath(*models)); err != nil {
			log.Fatalf("loading %s: %v (train it with readys-train -stream)", exp.StreamAgentPath(*models), err)
		}
		pol = core.NewPolicy(agent)
	case "heft-per-job":
		pol = stream.NewHEFTPerJobPolicy()
	case "replan-heft":
		pol = sched.NewReplanHEFTPolicy()
	case "mct":
		pol = sched.MCTPolicy{}
	case "minmin":
		pol = sched.MinMinPolicy{}
	case "maxmin":
		pol = sched.MaxMinPolicy{}
	case "fifo":
		pol = sched.FIFOPolicy{}
	case "random":
		pol = sched.RandomPolicy{Rng: rand.New(rand.NewSource(*seed + 1))}
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	cfg := stream.Config{
		Platform: plat,
		Arrivals: arrivals,
		Sigma:    *sigma,
		Rng:      rand.New(rand.NewSource(*seed)),
	}
	if *faults {
		horizon := arrivals[len(arrivals)-1].At * 1.5
		if horizon <= 0 {
			horizon = 1000
		}
		fs := *faultSeed
		if fs == 0 {
			fs = *seed + 104729
		}
		cfg.Faults = sim.GeneratePlan(fs, plat.Size(), sim.SpecForRate(*faultRate, horizon))
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}
	if *metricsPath != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *flightPath != "" {
		cfg.Recorder = obs.NewFlightRecorder(0)
	}

	res, err := stream.Run(pol, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		log.Fatalf("union schedule invalid: %v", err)
	}

	fmt.Printf("%d jobs (%s, sizes %s) on %s, σ=%.2f, policy=%s\n",
		len(res.Jobs), *jobKinds, *jobSizes, plat, *sigma, *policy)
	if !*quiet {
		fmt.Printf("%4s  %-9s %4s %6s  %10s %10s %10s %9s\n",
			"job", "kind", "size", "tasks", "arrive_ms", "done_ms", "resp_ms", "slowdown")
		for _, j := range res.Jobs {
			fmt.Printf("%4d  %-9s %4d %6d  %10.1f %10.1f %10.1f %9.2f\n",
				j.Job, j.Kind, j.Size, j.Tasks, j.ArriveAt, j.DoneAt, j.Response, j.Slowdown)
		}
	}
	fmt.Printf("stream makespan   %.1f ms   (%d decisions, %d idle, %d kills)\n",
		res.Makespan, res.Decisions, res.IdleDecisions, res.Kills)
	fmt.Printf("response          mean %.1f ms, p99 %.1f ms\n", res.MeanResponse, res.P99Response)
	fmt.Printf("mean slowdown     %.2f× isolated HEFT\n", res.MeanSlowdown)
	fmt.Printf("utilization       %.1f%%   mean ready depth %.2f\n",
		100*res.Utilization, res.MeanReadyDepth)

	if *writeArr != "" {
		writeFile(*writeArr, func(f *os.File) error { return stream.WriteArrivals(f, arrivals) })
		fmt.Println("wrote", *writeArr)
	}
	if tracer != nil {
		writeFile(*tracePath, func(f *os.File) error { return tracer.WriteChromeTrace(f) })
		fmt.Println("wrote", *tracePath)
	}
	if cfg.Metrics != nil {
		if *metricsPath == "-" {
			if err := cfg.Metrics.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		} else {
			writeFile(*metricsPath, func(f *os.File) error { return cfg.Metrics.WriteText(f) })
			fmt.Println("wrote", *metricsPath)
		}
	}
	if res.Flight != nil {
		writeFile(*flightPath, func(f *os.File) error { return res.Flight.WriteJSONL(f) })
		fmt.Printf("wrote %s (%d flight events, %d overwritten)\n", *flightPath, res.Flight.Len(), res.Flight.Dropped())
	}
}

// loadArrivals reads the JSONL trace when given, otherwise draws the Poisson
// stream described by the flags.
func loadArrivals(path string, rate float64, jobs int, kindsCSV, sizesCSV string, seed int64) ([]stream.Arrival, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return stream.ReadArrivals(f)
	}
	var kinds []taskgraph.Kind
	for _, s := range strings.Split(kindsCSV, ",") {
		k, err := taskgraph.KindFromString(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	var sizes []int
	for _, s := range strings.Split(sizesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad job size %q: %w", s, err)
		}
		sizes = append(sizes, n)
	}
	return stream.PoissonProcess{Rate: rate, Jobs: jobs, Kinds: kinds, Sizes: sizes}.
		Generate(rand.New(rand.NewSource(seed)))
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
}
