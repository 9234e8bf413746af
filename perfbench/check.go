package main

import (
	"encoding/json"
	"fmt"
	"math"

	"readys/internal/exp"
	"readys/internal/platform"
	"readys/internal/sched"
	"readys/internal/serve"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// model is one served checkpoint: a DAG family at a tile count on a
// platform.
type model struct {
	kind       taskgraph.Kind
	t          int
	cpus, gpus int
}

func (m model) name() string {
	return exp.DefaultAgentSpec(m.kind, m.t, m.cpus, m.gpus).Name()
}

// problem is the checker's reference copy of one model's scheduling
// problem: the generated DAG, the platform and HEFT's projected makespan.
type problem struct {
	graph *taskgraph.Graph
	plat  platform.Platform
	heft  float64
}

func newProblem(m model) problem {
	g := taskgraph.NewByKind(m.kind, m.t)
	plat := platform.New(m.cpus, m.gpus)
	return problem{graph: g, plat: plat, heft: sched.HEFT(g, plat, platform.TimingFor(m.kind)).Makespan}
}

// checker re-validates every schedule the serving tier returns against the
// benchmark's own copy of the problem. It is read-only after construction
// and safe for concurrent use.
type checker struct {
	problems map[model]problem
}

func newChecker(models []model) *checker {
	c := &checker{problems: make(map[model]problem, len(models))}
	for _, m := range models {
		c.problems[m] = newProblem(m)
	}
	return c
}

// check validates one /v1/schedule answer to req and returns the decoded
// response and its HEFT/READYS makespan ratio. A
// non-200 status, a schedule that places a task twice or not at all, runs a
// task before a predecessor ends, overlaps two tasks on one resource or puts
// a task on the wrong resource type, and a wrong HEFT reference, are all
// errors.
func (c *checker) check(req request, status int, body []byte) (serve.ScheduleResponse, float64, error) {
	m := req.m
	var resp serve.ScheduleResponse
	if status != 200 {
		return resp, 0, fmt.Errorf("%s: status %d: %.200s", m.name(), status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, 0, fmt.Errorf("%s: decoding response: %w", m.name(), err)
	}
	p, ok := c.problems[m]
	if !ok {
		return resp, 0, fmt.Errorf("%s: no reference problem", m.name())
	}
	if resp.Model != req.served().name() {
		return resp, 0, fmt.Errorf("%s: answered by model %s", m.name(), resp.Model)
	}
	if resp.NumTasks != p.graph.NumTasks() {
		return resp, 0, fmt.Errorf("%s: %d tasks, want %d", m.name(), resp.NumTasks, p.graph.NumTasks())
	}
	res := sim.Result{Makespan: resp.Makespan, Trace: make([]sim.Placement, len(resp.Placements))}
	for i, pl := range resp.Placements {
		if pl.Resource < 0 || pl.Resource >= p.plat.Size() {
			return resp, 0, fmt.Errorf("%s: task %d on unknown resource %d", m.name(), pl.Task, pl.Resource)
		}
		if want := p.plat.Resources[pl.Resource].Type.String(); pl.Type != want {
			return resp, 0, fmt.Errorf("%s: task %d on resource %d typed %s, want %s", m.name(), pl.Task, pl.Resource, pl.Type, want)
		}
		res.Trace[i] = sim.Placement{Task: pl.Task, Resource: pl.Resource, Start: pl.Start, End: pl.End}
	}
	if err := sim.ValidateResult(p.graph, p.plat.Size(), res); err != nil {
		return resp, 0, fmt.Errorf("%s: invalid schedule: %w", m.name(), err)
	}
	if math.Abs(resp.HEFTMakespan-p.heft) > 1e-9*p.heft {
		return resp, 0, fmt.Errorf("%s: HEFT reference %g, want %g", m.name(), resp.HEFTMakespan, p.heft)
	}
	if !(resp.Makespan > 0) {
		return resp, 0, fmt.Errorf("%s: makespan %g", m.name(), resp.Makespan)
	}
	return resp, p.heft / resp.Makespan, nil
}
