package taskgraph

import "fmt"

// DescendantFeatures computes the per-task descendant-type summary F(i) of
// §III-B. The unnormalised form is defined recursively over successors:
//
//	F̄(i) = onehot(type(i)) + Σ_{c ∈ S(i)} F̄(c) / |P(c)|
//
// and F(i) = F̄(i) / F̄(root), componentwise. Splitting each child's vector
// across its |P(c)| parents makes Σ over the roots of each component equal to
// the number of tasks of that type, so F(root) is the all-ones vector and
// every F(i) component lies in [0, 1]: F(i) measures which fraction of the
// remaining work of each kernel type flows through task i.
//
// For graphs with several roots the normaliser is the componentwise sum of
// F̄ over all roots in ID order (which equals F̄(root) when the root is
// unique). Components whose normaliser is zero (no task of that type) are
// zero.
//
// The result is an NumTasks x NumKernels row-major matrix flattened as
// [][NumKernels]float64. It panics if the graph has a cycle.
func DescendantFeatures(g *Graph) [][NumKernels]float64 {
	var d DescendantSummary
	d.Update(g)
	return d.Features()
}

// DescendantSummary maintains DescendantFeatures for a graph that grows by
// appending tasks, as a stream's union DAG does (one job per arrival). It
// keeps the unnormalised rows F̄ and the root-sum normaliser, so an update
// that appends k tasks linked only among themselves costs O(k): it computes
// F̄ for those k tasks and adds the new roots to the normaliser. Normalised
// rows are produced on demand, one (Row) or all (Features) at a time.
//
// The result is bit-identical to a full recompute on the grown graph: F̄(i)
// depends only on the order of Succ[i] and its successors' final rows, not
// on the order tasks are visited in, and appended roots have higher IDs than
// every old root, so the normaliser sums the same roots in the same order.
//
// An update falls back to a full recompute when the graph shrank or an
// appended task has an edge to an older task. Edges added between two older
// tasks are not detected; call Reset when the graph is replaced or rewired.
// The zero value is ready to use.
type DescendantSummary struct {
	raw    [][NumKernels]float64
	norm   [NumKernels]float64
	n      int  // tasks covered by raw and norm
	primed bool // raw and norm describe tasks [0, n) of the current graph

	out   [][NumKernels]float64 // Features' buffer
	outOK bool                  // out holds F for the current raw and norm

	state []uint8 // DFS scratch over the tasks being added
	stack []dfsFrame
	stats DescendantStats
}

// DescendantStats counts a DescendantSummary's work.
type DescendantStats struct {
	// Recomputes counts updates that computed every row: the first update
	// after Reset, and each fallback.
	Recomputes int
	// Appended counts rows computed onto earlier state by later updates.
	Appended int
}

type dfsFrame struct{ task, next int }

// DFS visit states.
const (
	dfsNew uint8 = iota
	dfsOpen
	dfsDone
)

// Reset drops the summary's state, keeping its buffers: the next Update
// recomputes every row.
func (d *DescendantSummary) Reset() {
	d.primed = false
	d.n = 0
	d.outOK = false
}

// Stats returns the work counters accumulated since the summary was created.
func (d *DescendantSummary) Stats() DescendantStats { return d.stats }

// Update brings the summary up to date with g. It panics if the tasks it
// computes contain a cycle.
func (d *DescendantSummary) Update(g *Graph) {
	n := g.NumTasks()
	from := d.n
	switch {
	case !d.primed || n < from || !g.ClosedFrom(from):
		from = 0
		d.norm = [NumKernels]float64{}
		d.stats.Recomputes++
	case n == from:
		return
	default:
		d.stats.Appended += n - from
	}
	d.raw = growTo(d.raw, n)
	d.extendRaw(g, from)
	for i := from; i < n; i++ {
		if len(g.Pred[i]) == 0 {
			for k := 0; k < NumKernels; k++ {
				d.norm[k] += d.raw[i][k]
			}
		}
	}
	d.n, d.primed, d.outOK = n, true, false
}

// Row returns F(t) for a task the summary covers, normalising its row on the
// fly.
func (d *DescendantSummary) Row(t int) [NumKernels]float64 {
	var f [NumKernels]float64
	for k := 0; k < NumKernels; k++ {
		if d.norm[k] > 0 {
			f[k] = d.raw[t][k] / d.norm[k]
		}
	}
	return f
}

// Features returns F for every task the summary covers, normalising every
// row when the summary changed since the last call. The rows alias the
// summary's buffer, which a later call after an Update rewrites.
func (d *DescendantSummary) Features() [][NumKernels]float64 {
	if !d.outOK {
		d.out = growTo(d.out, d.n)
		for i := range d.out {
			d.out[i] = d.Row(i)
		}
		d.outOK = true
	}
	return d.out
}

// extendRaw computes F̄ for tasks [from, NumTasks) in DFS post-order, which
// finalises every task after all of its successors. Tasks below from are
// final already and, by the ClosedFrom check, no task at or above from
// links to them.
func (d *DescendantSummary) extendRaw(g *Graph, from int) {
	n := g.NumTasks()
	state := growTo(d.state, n-from)
	clear(state)
	stack := d.stack[:0]
	for root := from; root < n; root++ {
		if state[root-from] != dfsNew {
			continue
		}
		state[root-from] = dfsOpen
		stack = append(stack, dfsFrame{task: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if succ := g.Succ[top.task]; top.next < len(succ) {
				c := succ[top.next]
				top.next++
				switch state[c-from] {
				case dfsNew:
					state[c-from] = dfsOpen
					stack = append(stack, dfsFrame{task: c})
				case dfsOpen:
					panic(fmt.Errorf("taskgraph: graph has a cycle through task %d", c))
				}
				continue
			}
			t := top.task
			stack = stack[:len(stack)-1]
			d.finalise(g, t)
			state[t-from] = dfsDone
		}
	}
	d.state, d.stack = state, stack
}

// finalise computes F̄(t) from its successors' final rows.
func (d *DescendantSummary) finalise(g *Graph, t int) {
	r := &d.raw[t]
	*r = [NumKernels]float64{}
	r[g.Tasks[t].Kernel] += 1
	for _, c := range g.Succ[t] {
		share := 1.0 / float64(len(g.Pred[c]))
		for k := 0; k < NumKernels; k++ {
			r[k] += d.raw[c][k] * share
		}
	}
}

// growTo returns s resized to n elements, keeping its contents and growing
// the backing array geometrically.
func growTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)[:n]
}

// Window returns the sub-DAG retained in the READYS state (§III-B): the
// running tasks, the ready tasks, and every descendant of a running or ready
// task whose depth is at most w, where the depth of a descendant is the
// minimum length over paths from any running/ready task to it.
//
// The result is sorted by task ID. w = 0 keeps only running and ready tasks.
func Window(g *Graph, running, ready []int, w int) []int {
	type qitem struct {
		task  int
		depth int
	}
	depth := make(map[int]int)
	queue := make([]qitem, 0, len(running)+len(ready))
	for _, t := range running {
		depth[t] = 0
		queue = append(queue, qitem{t, 0})
	}
	for _, t := range ready {
		depth[t] = 0
		queue = append(queue, qitem{t, 0})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.depth == w {
			continue
		}
		for _, s := range g.Succ[it.task] {
			if d, seen := depth[s]; !seen || it.depth+1 < d {
				depth[s] = it.depth + 1
				queue = append(queue, qitem{s, it.depth + 1})
			}
		}
	}
	out := make([]int, 0, len(depth))
	for t := range depth {
		out = append(out, t)
	}
	sortInts(out)
	return out
}

// sortInts is a small insertion/quick hybrid avoiding the sort import here;
// window sets are small (tens of tasks).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
