package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"readys/internal/platform"
	"readys/internal/sim"
	"readys/internal/taskgraph"
)

// TestIncrementalGraphAppendFallback encodes a growing union DAG after each
// arrival and compares the incremental encoder, fed the policy's appended
// descendant features, with EncodeFault on features recomputed from scratch.
// The last arrival gets an extra edge from a ready task of the first job, so
// both the features and the graph caches must fall back to a full rebuild.
func TestIncrementalGraphAppendFallback(t *testing.T) {
	for _, directed := range []bool{false, true} {
		cfg := Config{Window: 2, Layers: 1, Hidden: 8, Seed: 2, Directed: directed}
		p := NewPolicy(NewAgent(cfg))
		cl, err := sim.NewCluster(platform.New(2, 2), sim.Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		s := cl.State()
		p.Reset(s)
		check := func(ctx string) {
			t.Helper()
			want := EncodeFault(s, 0, taskgraph.DescendantFeatures(s.Graph), cfg.Window, directed, false)
			p.desc.Update(s.Graph)
			assertStatesEqual(t, want, p.inc.Encode(s, 0, &p.desc), fmt.Sprintf("directed=%v %s", directed, ctx))
		}
		addJob := func(job int, g *taskgraph.Graph) int {
			t.Helper()
			base, err := cl.AddJob(job, g, platform.TimingFor(g.Kind))
			if err != nil {
				t.Fatal(err)
			}
			return base
		}
		addJob(0, taskgraph.NewCholesky(3))
		check("first job")
		addJob(1, taskgraph.NewLU(3))
		check("appended job")
		if fs, is := p.FeatureStats(), p.IncrementalStats(); fs.Recomputes != 1 || is.GraphRefreshes != 1 {
			t.Fatalf("directed=%v: appends fell back: %+v %+v", directed, fs, is)
		}

		base := addJob(2, taskgraph.NewCholesky(3))
		s.Graph.AddEdge(s.Ready[0], base+1)
		check("old predecessor")
		if fs, is := p.FeatureStats(), p.IncrementalStats(); fs.Recomputes != 2 || is.GraphRefreshes != 2 {
			t.Fatalf("directed=%v: linked arrival did not fall back: %+v %+v", directed, fs, is)
		}
	}
}

// BenchmarkStreamArrival measures the policy-side cost of one job arrival —
// the descendant-feature update and the encoder's graph-cache refresh — as
// ns/arrival, for a Cholesky T=4 job (20 tasks) joining a union DAG of about
// 1k or 4k tasks. Each op rebuilds the union untimed and then times 32
// arrivals, so ns/op is dominated by the rebuild; read ns/arrival.
func BenchmarkStreamArrival(b *testing.B) {
	const arrivals = 32
	job := taskgraph.NewCholesky(4)
	tt := platform.TimingFor(taskgraph.Cholesky)
	for _, unionTasks := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("union=%d", unionTasks), func(b *testing.B) {
			p := NewPolicy(NewAgent(Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1}))
			var timed time.Duration
			for i := 0; i < b.N; i++ {
				cl, err := sim.NewCluster(platform.New(2, 2), sim.Options{Rng: rand.New(rand.NewSource(1))})
				if err != nil {
					b.Fatal(err)
				}
				s := cl.State()
				p.Reset(s)
				jobs := 0
				for ; s.Graph.NumTasks() < unionTasks; jobs++ {
					if _, err := cl.AddJob(jobs, job, tt); err != nil {
						b.Fatal(err)
					}
				}
				p.desc.Update(s.Graph)
				p.inc.refreshGraphCaches(s)
				for a := 0; a < arrivals; a++ {
					if _, err := cl.AddJob(jobs+a, job, tt); err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					p.desc.Update(s.Graph)
					p.inc.refreshGraphCaches(s)
					timed += time.Since(start)
				}
			}
			b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N*arrivals), "ns/arrival")
		})
	}
}
