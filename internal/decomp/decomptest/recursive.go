package decomptest

import (
	"fmt"
	"sort"

	"treesched/internal/decomp"
	"treesched/internal/graph"
)

// Ops extends graph.SubtreeOps with the two component operations the
// recursive decompositions below need: Balancer and Split. Like
// SubtreeOps it owns scratch sized to the tree and is not safe for
// concurrent use.
type Ops struct {
	*graph.SubtreeOps
	t    *graph.Tree
	in   []bool // membership scratch for the component under operation
	size []int  // subtree-size scratch for Balancer
	seen []bool // visited scratch for Split
}

// NewOps returns component operations bound to t.
func NewOps(t *graph.Tree) *Ops {
	return &Ops{
		SubtreeOps: graph.NewSubtreeOps(t),
		t:          t,
		in:         make([]bool, t.N()),
		size:       make([]int, t.N()),
		seen:       make([]bool, t.N()),
	}
}

func (s *Ops) setAll(comp []graph.Vertex, v bool) {
	for _, x := range comp {
		s.in[x] = v
	}
}

// Balancer returns a vertex z of comp such that deleting z splits comp into
// components each of size at most ⌊|comp|/2⌋ (a centroid of the induced
// subtree). comp must be a non-empty component. Ties are broken toward the
// lowest-numbered vertex.
func (s *Ops) Balancer(comp []graph.Vertex) graph.Vertex {
	if len(comp) == 1 {
		return comp[0]
	}
	s.setAll(comp, true)
	defer s.setAll(comp, false)

	// Iterative post-order DFS from comp[0] restricted to comp, computing
	// induced-subtree sizes.
	root := comp[0]
	parent := map[graph.Vertex]graph.Vertex{root: -1}
	order := make([]graph.Vertex, 0, len(comp))
	stack := []graph.Vertex{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, w := range s.t.Adj(v) {
			if s.in[w] && w != parent[v] {
				parent[w] = v
				stack = append(stack, w)
			}
		}
	}
	for _, v := range order {
		s.size[v] = 1
	}
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		s.size[parent[v]] += s.size[v]
	}

	total := len(comp)
	best, bestMax := -1, total+1
	for _, v := range order {
		// Max component size if v is removed: the largest child subtree, or
		// the "rest of the component" above v.
		maxPart := total - s.size[v]
		for _, w := range s.t.Adj(v) {
			if s.in[w] && parent[w] == v && s.size[w] > maxPart {
				maxPart = s.size[w]
			}
		}
		if maxPart < bestMax || (maxPart == bestMax && v < best) {
			best, bestMax = v, maxPart
		}
	}
	return best
}

// Split removes z from comp and returns the connected components of the
// remainder. Components are ordered by their lowest vertex and each
// component's vertices are sorted. comp must contain z.
func (s *Ops) Split(comp []graph.Vertex, z graph.Vertex) [][]graph.Vertex {
	s.setAll(comp, true)
	defer s.setAll(comp, false)
	s.in[z] = false

	var parts [][]graph.Vertex
	for _, start := range s.t.Adj(z) {
		if !s.in[start] || s.seen[start] {
			continue
		}
		part := []graph.Vertex{}
		queue := []graph.Vertex{start}
		s.seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			part = append(part, v)
			for _, w := range s.t.Adj(v) {
				if s.in[w] && !s.seen[w] {
					s.seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(part)
		parts = append(parts, part)
	}
	for _, part := range parts {
		for _, v := range part {
			s.seen[v] = false
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	return parts
}

// Ideal is decomp.Ideal as §4.3 reads: the recursive BuildIdealTD over
// explicit component lists, every split by Split and every Γ by
// SubtreeOps.Neighbors. decomp.Ideal must return the identical
// decomposition.
func Ideal(t *graph.Tree) *decomp.TreeDecomposition {
	b := newBuild(t)
	all := allVertices(t.N())
	// Top level: root H at a balancer g of the whole vertex set; the parts
	// of V - {g} each have Γ = {g}, satisfying BuildIdealTD's precondition.
	g := b.ops.Balancer(all)
	b.h.Root = g
	b.h.Parent[g] = -1
	for _, part := range b.ops.Split(all, g) {
		b.ideal(part, b.ops.Neighbors(part), g)
	}
	return b.done()
}

// Balancing is decomp.Balancing as §4.2's BuildBalTD reads: recursively
// root each component at its balancer, with Γ of the component as the
// balancer's pivot set.
func Balancing(t *graph.Tree) *decomp.TreeDecomposition {
	b := newBuild(t)
	b.h.Root = b.balancing(allVertices(t.N()), -1)
	return b.done()
}

type build struct {
	h   *decomp.TreeDecomposition
	ops *Ops
}

func newBuild(t *graph.Tree) *build {
	n := t.N()
	return &build{
		h: &decomp.TreeDecomposition{
			T:      t,
			Parent: make([]graph.Vertex, n),
			Pivot:  make([][]graph.Vertex, n),
		},
		ops: NewOps(t),
	}
}

func allVertices(n int) []graph.Vertex {
	all := make([]graph.Vertex, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// done fills Depth from Parent and Root: the root has depth 1.
func (b *build) done() *decomp.TreeDecomposition {
	h := b.h
	h.Depth = make([]int, len(h.Parent))
	ch := h.Children()
	h.Depth[h.Root] = 1
	stack := []graph.Vertex{h.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range ch[v] {
			h.Depth[w] = h.Depth[v] + 1
			stack = append(stack, w)
		}
	}
	return h
}

func (b *build) balancing(comp []graph.Vertex, parent graph.Vertex) graph.Vertex {
	z := b.ops.Balancer(comp)
	b.h.Parent[z] = parent
	b.h.Pivot[z] = b.ops.Neighbors(comp)
	for _, part := range b.ops.Split(comp, z) {
		b.balancing(part, z)
	}
	return z
}

// ideal is the paper's BuildIdealTD. comp must be a component with at
// most two neighbors (gamma); the subtree of H it builds hangs under
// parent.
func (b *build) ideal(comp, gamma []graph.Vertex, parent graph.Vertex) {
	if len(gamma) > 2 {
		panic(fmt.Sprintf("decomptest: BuildIdealTD precondition violated: |Γ|=%d for component %v", len(gamma), comp))
	}
	h, ops := b.h, b.ops
	if len(comp) == 1 {
		v := comp[0]
		h.Parent[v] = parent
		h.Pivot[v] = gamma
		return
	}
	z := ops.Balancer(comp)
	parts := ops.Split(comp, z)

	// Case 2(b) applies when some part would see three neighbors
	// {u1, u2, z}: both outside neighbors attach through the same part.
	if len(gamma) == 2 {
		for pi, part := range parts {
			if len(ops.Neighbors(part)) == 3 {
				b.case2b(z, parts, pi, gamma, parent)
				return
			}
		}
	}

	// Case 1 / Case 2(a): every part already has at most two neighbors.
	h.Parent[z] = parent
	h.Pivot[z] = gamma
	for _, part := range parts {
		b.ideal(part, ops.Neighbors(part), z)
	}
}

// case2b is §4.3 Case 2(b): the part c1 := parts[c1Index] of comp - {z}
// is adjacent to both outside neighbors u1, u2 (and to z). The junction
// j = median(u1, u2, z) becomes the subtree root with pivot set gamma, z
// its child with pivot set {j}; the z-side subpart of c1 and the parts
// other than c1 hang under z, the remaining subparts of c1 under j.
func (b *build) case2b(z graph.Vertex, parts [][]graph.Vertex, c1Index int, gamma []graph.Vertex, parent graph.Vertex) {
	h, ops := b.h, b.ops
	j := h.T.Median(gamma[0], gamma[1], z)
	h.Parent[j] = parent
	h.Pivot[j] = gamma
	h.Parent[z] = j
	h.Pivot[z] = []graph.Vertex{j}

	for pi, part := range parts {
		if pi != c1Index {
			b.ideal(part, ops.Neighbors(part), z) // Γ(part) = {z}
		}
	}
	c1 := parts[c1Index]
	if len(c1) == 1 {
		if c1[0] != j {
			panic(fmt.Sprintf("decomptest: junction %d not the sole member of c1 %v", j, c1))
		}
		return
	}
	for _, sub := range ops.Split(c1, j) {
		nb := ops.Neighbors(sub)
		if contains(nb, z) {
			b.ideal(sub, nb, z) // Γ = {j, z}: part of C(z)
		} else {
			b.ideal(sub, nb, j)
		}
	}
}

func contains(s []graph.Vertex, v graph.Vertex) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
