package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// descendantFeaturesOracle is the reverse-topological-order implementation
// DescendantSummary replaced; it stays here as the bit-identity oracle.
func descendantFeaturesOracle(g *Graph) [][NumKernels]float64 {
	n := g.NumTasks()
	raw := make([][NumKernels]float64, n)
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	for idx := n - 1; idx >= 0; idx-- {
		i := order[idx]
		raw[i][g.Tasks[i].Kernel] += 1
		for _, c := range g.Succ[i] {
			share := 1.0 / float64(len(g.Pred[c]))
			for k := 0; k < NumKernels; k++ {
				raw[i][k] += raw[c][k] * share
			}
		}
	}
	var norm [NumKernels]float64
	for _, r := range g.Roots() {
		for k := 0; k < NumKernels; k++ {
			norm[k] += raw[r][k]
		}
	}
	out := make([][NumKernels]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < NumKernels; k++ {
			if norm[k] > 0 {
				out[i][k] = raw[i][k] / norm[k]
			}
		}
	}
	return out
}

// randomFamilyGraph draws a small graph from one of the seven families.
func randomFamilyGraph(rng *rand.Rand) *Graph {
	switch Kind(rng.Intn(7)) {
	case Cholesky:
		return NewCholesky(2 + rng.Intn(4))
	case LU:
		return NewLU(2 + rng.Intn(3))
	case QR:
		return NewQR(2 + rng.Intn(3))
	case Gemm:
		return NewGemm(1 + rng.Intn(3))
	case Stencil:
		return NewStencil(1 + rng.Intn(5))
	case ForkJoin:
		return NewForkJoin(1+rng.Intn(3), 1+rng.Intn(4))
	default:
		cfg := DefaultRandomConfig()
		cfg.Layers = 1 + rng.Intn(6)
		return NewLayeredRandom(rng, cfg)
	}
}

// appendJob copies job into union with its task IDs offset past the existing
// tasks, the way a streaming cluster admits a job.
func appendJob(union, job *Graph) {
	base := union.NumTasks()
	for _, t := range job.Tasks {
		union.AddTask(t.Kernel, t.Name)
	}
	for from, succ := range job.Succ {
		for _, to := range succ {
			union.AddEdge(base+from, base+to)
		}
	}
}

func assertBitIdentical(t *testing.T, what string, got, want [][NumKernels]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for k := 0; k < NumKernels; k++ {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("%s: F[%d][%d] = %v, want %v (bitwise)", what, i, k, got[i][k], want[i][k])
			}
		}
	}
}

// assertSummary checks both of a summary's views, Row and Features, against
// the oracle.
func assertSummary(t *testing.T, what string, d *DescendantSummary, want [][NumKernels]float64) {
	t.Helper()
	rows := make([][NumKernels]float64, len(want))
	for i := range rows {
		rows[i] = d.Row(i)
	}
	assertBitIdentical(t, what+" Row", rows, want)
	assertBitIdentical(t, what+" Features", d.Features(), want)
}

// TestDescendantSummaryAppendBitIdentical grows random unions of all seven
// families one job at a time and checks every row after every append against
// the full-recompute oracle, bit for bit. Only the first update may be a
// full recompute.
func TestDescendantSummaryAppendBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		union := NewCustom(Random, [NumKernels]string{"K0", "K1", "K2", "K3"})
		var d DescendantSummary
		d.Update(union)
		jobs := 2 + rng.Intn(12)
		for j := 0; j < jobs; j++ {
			appendJob(union, randomFamilyGraph(rng))
			d.Update(union)
			assertSummary(t, fmt.Sprintf("seed %d job %d", seed, j), &d, descendantFeaturesOracle(union))
		}
		st := d.Stats()
		if st.Recomputes != 1 || st.Appended != union.NumTasks() {
			t.Fatalf("seed %d: stats %+v, want 1 recompute and %d appended", seed, st, union.NumTasks())
		}
		assertBitIdentical(t, fmt.Sprintf("seed %d DescendantFeatures", seed), DescendantFeatures(union), descendantFeaturesOracle(union))
	}
}

// TestDescendantSummaryFallbacks covers the updates that cannot extend: an
// appended task linked to an older one (in either direction), and a graph
// smaller than the last one, with or without Reset.
func TestDescendantSummaryFallbacks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		union := NewCustom(Random, [NumKernels]string{"K0", "K1", "K2", "K3"})
		var d DescendantSummary
		for j := 0; j < 3; j++ {
			appendJob(union, randomFamilyGraph(rng))
			d.Update(union)
		}
		recomputes := d.Stats().Recomputes
		check := func(what string, g *Graph) {
			t.Helper()
			recomputes++
			d.Update(g)
			if r := d.Stats().Recomputes; r != recomputes {
				t.Fatalf("seed %d %s: %d recomputes, want %d", seed, what, r, recomputes)
			}
			assertSummary(t, fmt.Sprintf("seed %d %s", seed, what), &d, descendantFeaturesOracle(g))
		}

		// A new task whose predecessor is an old task.
		old := union.NumTasks()
		appendJob(union, randomFamilyGraph(rng))
		union.AddEdge(rng.Intn(old), old+rng.Intn(union.NumTasks()-old))
		check("old predecessor", union)

		// A new task whose successor is an old (root) task.
		old = union.NumTasks()
		appendJob(union, randomFamilyGraph(rng))
		roots := union.Roots()
		union.AddEdge(union.NumTasks()-1, roots[0])
		check("old successor", union)

		// A smaller graph without Reset, then the same after Reset.
		small := randomFamilyGraph(rng)
		check("shrink", small)
		d.Reset()
		check("reset", small)
	}
}

func TestDescendantFeaturesPanicsOnCycle(t *testing.T) {
	g := newGraph(Random, 0, [NumKernels]string{"a", "b", "c", "d"})
	a := g.AddTask(0, "A")
	b := g.AddTask(1, "B")
	c := g.AddTask(2, "C")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, b)
	defer func() {
		if recover() == nil {
			t.Fatal("DescendantFeatures must panic on a cycle")
		}
	}()
	DescendantFeatures(g)
}

// topoOrderOracle is Kahn's algorithm with the frontier re-sorted on every
// pop, the implementation TopoOrder's heap replaced.
func topoOrderOracle(g *Graph) ([]int, bool) {
	n := g.NumTasks()
	indeg := make([]int, n)
	for i := range g.Pred {
		indeg[i] = len(g.Pred[i])
	}
	var frontier []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, next)
		for _, s := range g.Succ[next] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	return order, len(order) == n
}

// TestTopoOrderMatchesSortOracle checks the heap-based TopoOrder against the
// sort-per-pop oracle on random DAGs whose topological ranks are shuffled
// against their IDs, so the min-ID tie-break decides most pops, and on
// graphs with an added back edge.
func TestTopoOrderMatchesSortOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		rank := rng.Perm(n)
		g := NewCustom(Random, [NumKernels]string{"K0", "K1", "K2", "K3"})
		for i := 0; i < n; i++ {
			g.AddTask(Kernel(rng.Intn(NumKernels)), "")
		}
		p := rng.Float64() * 0.2
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rank[i] < rank[j] && rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		if seed%4 == 3 && n > 2 {
			// A back edge between the two ends of a path makes a cycle.
			i, j := rng.Intn(n), rng.Intn(n)
			if rank[i] < rank[j] {
				g.AddEdge(i, j)
				g.AddEdge(j, i)
			}
		}
		want, ok := topoOrderOracle(g)
		got, err := g.TopoOrder()
		if ok != (err == nil) {
			t.Fatalf("seed %d: oracle acyclic=%v, TopoOrder err=%v", seed, ok, err)
		}
		if !ok {
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order differs at %d: %v vs %v", seed, i, got, want)
			}
		}
	}
}
