// Command perfbench is the repository benchmark. It drives READYS through its
// public entry points — HTTP through the gateway into in-process serving
// replicas, online streams through stream.Run, and A2C training through
// rl.Trainer — and prints one JSON result line.
//
// Usage, from the root of a checkout (run.sh builds the binary first):
//
//	perfbench --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it runs the layer ledger and reports the
// per-layer metrics, recording every timed call as a span. The last line of
// standard output is {"correct", "attempted", "failed", "metrics"}; the line
// before it is the machine fingerprint. A copy of the result with the
// fingerprint and sample counts goes to .bench_build/results/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"readys/internal/obs"
)

// workload is one named traffic shape. e2e measures the end-to-end metrics
// with tracing off; ledger runs the traced layer-by-layer measurement.
type workload struct {
	e2e    func(*run) error
	ledger func(*run) error
}

var workloads = map[string]workload{
	"serve-mix":   {e2e: serveMixE2E, ledger: serveMixLedger},
	"stream-long": {e2e: streamLongE2E, ledger: streamLongLedger},
	"train-a2c":   {e2e: trainA2CE2E, ledger: trainA2CLedger},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// portBase is the first pinned loopback port of the serving tier (see
	// stack.go); tests move it so they can run beside a benchmark.
	portBase int
	// root is the checkout root: models/ and BENCHMARK.json live here.
	root string
	// size scales every workload's amount of work (1 = benchmark size); the
	// self-test runs at a small fraction.
	size float64
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the state of one benchmark invocation: the metric values set so
// far, the operation counts and failures, and the span tracer of a traced
// run. Its methods are safe for concurrent use.
type run struct {
	opt   options
	epoch time.Time
	// tracer records the spans of a traced run; nil with --trace 0.
	tracer *obs.Tracer

	mu        sync.Mutex
	values    map[string]float64
	notes     map[string]any
	attempted int
	failed    int
	failures  []string
}

func newRun(opt options) *run {
	r := &run{opt: opt, epoch: time.Now(), values: map[string]float64{}, notes: map[string]any{}}
	if opt.trace {
		r.tracer = obs.NewTracer(1 << 16)
		r.tracer.NameProcess(1, "perfbench "+opt.workload)
	}
	return r
}

// set records a metric value.
func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// note records a diagnostic (sample counts, shapes) for the result file.
func (r *run) note(name string, v any) {
	r.mu.Lock()
	r.notes[name] = v
	r.mu.Unlock()
}

// attempt counts n operations as attempted.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation; the first few reasons are kept.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// span records a completed call into a layer as a trace slice on lane tid.
// It is a no-op in an untraced run.
func (r *run) span(name string, tid int64, start time.Time, d time.Duration, args map[string]any) {
	if r.tracer == nil {
		return
	}
	r.tracer.Complete(name, "perfbench", 1, tid,
		float64(start.Sub(r.epoch))/float64(time.Microsecond), float64(d)/float64(time.Microsecond), args)
}

func main() {
	opt := options{}
	flag.StringVar(&opt.workload, "workload", "", "workload name: serve-mix, stream-long or train-a2c")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced layer ledger instead of the end-to-end measurement")
	flag.Parse()
	opt.trace = *trace == 1
	opt.portBase = defaultPortBase
	opt.root = "."
	opt.size = 1
	res, err := execute(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one benchmark invocation, prints the fingerprint and result
// lines, and writes the result file. The returned error means no result
// could be produced; a result with Correct false means the program failed
// or produced invalid output.
func execute(opt options) (*result, error) {
	w, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	specs, err := readManifest(filepath.Join(opt.root, "BENCHMARK.json"), opt.trace)
	if err != nil {
		return nil, err
	}
	fp := readFingerprint()
	r := newRun(opt)
	measure := w.e2e
	if opt.trace {
		measure = w.ledger
	}
	err = measure(r)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if r.opt.trace {
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	r.set("peak_rss_mb", peakRSSMB())
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", opt.workload, s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	if err := writeRecord(opt, fp, res, r.notes); err != nil {
		return nil, err
	}
	fpLine, _ := json.Marshal(fp)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Printf("fingerprint %s\n%s\n", fpLine, line)
	return res, nil
}

// readManifest returns the metrics BENCHMARK.json declares for the mode:
// per-layer for a traced run, end-to-end otherwise. The names and units
// live only there, so a run cannot drift from the declaration.
func readManifest(path string, trace bool) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if trace {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

// writeRecord keeps a copy of the result with the machine fingerprint and
// the run's diagnostics under .bench_build/results/.
func writeRecord(opt options, fp fingerprint, res *result, notes map[string]any) error {
	dir := filepath.Join(opt.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"fingerprint": fp, "result": res, "notes": notes,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", opt.workload, opt.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// writeTrace exports the traced run's spans as a Chrome trace under
// .bench_build/traces/.
func (r *run) writeTrace() error {
	dir := filepath.Join(r.opt.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.opt.workload, r.opt.seed)))
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
