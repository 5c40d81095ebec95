package decomp

import (
	"fmt"

	"treesched/internal/graph"
)

// centroidDecomposition builds the ideal decomposition of §4.3 (ideal) or
// the balancing decomposition of §4.2 (!ideal) without recursion, over
// flat arrays sized to the tree.
//
// A component is never listed: it is the set of vertices not yet placed in
// H that one member reaches without crossing a placed vertex, and its
// outside neighbours Γ — all of them placed H-ancestors — fence it in. A
// task is such a component, waiting to be split: a member, its size, its
// H-parent and its Γ, each Γ member kept with its one neighbour inside the
// component (a tree has no cycles, so a vertex outside a connected subtree
// has exactly one neighbour in it). Splitting a task walks its component
// once: the DFS's subtree sizes lead to the balancer and size every part,
// and its preorder intervals tell which part holds each Γ member's inside
// neighbour, so Γ(part) = {z} ∪ {the members of Γ(comp) attached inside
// the part}, already in vertex order, with no scan and no sort. Depth is
// set when a vertex is placed, and at the end every pivot set becomes a
// sub-slice of one backing array.
//
// Each task's Γ becomes the pivot set of exactly the one vertex it places
// (the balancer, the junction of Case 2(b), or its only member), and Case
// 2(b) adds the pivot set {j} of its balancer, so the Γ lists appended
// while building are the pivot sets and nothing else. The scratch belongs
// to the call, so two networks can be decomposed at once.
func centroidDecomposition(t *graph.Tree, ideal bool) *TreeDecomposition {
	n := t.N()
	h := &TreeDecomposition{
		T:      t,
		Parent: make([]graph.Vertex, n),
		Depth:  make([]int, n),
		Pivot:  make([][]graph.Vertex, n),
	}
	slab := make([]int32, 7*n)
	b := &centroids{
		t:      t,
		h:      h,
		pre:    slab[0*n : 1*n],
		up:     slab[1*n : 2*n],
		size:   slab[2*n : 3*n],
		order:  slab[3*n : 4*n],
		stack:  slab[4*n : 4*n : 5*n],
		pivOff: slab[5*n : 6*n],
		pivLen: slab[6*n : 7*n],
		tasks:  make([]task, 0, n),
		// Lemma 4.1 bounds every ideal pivot set by 2; a balancing pivot
		// set can be larger, and then the arena grows.
		gamma: make([]outside, 0, 2*n),
	}
	b.tasks = append(b.tasks, task{start: 0, size: int32(n), parent: -1})
	for len(b.tasks) > 0 {
		tk := b.tasks[len(b.tasks)-1]
		b.tasks = b.tasks[:len(b.tasks)-1]
		gam := b.gamma[tk.g : tk.g+tk.ng]
		if ideal && len(gam) > 2 {
			panic(fmt.Sprintf("decomp: BuildIdealTD precondition violated: |Γ|=%d at vertex %d", len(gam), tk.start))
		}
		if tk.size == 1 {
			b.place(graph.Vertex(tk.start), graph.Vertex(tk.parent), tk.g, tk.ng)
			continue
		}
		b.dfs(graph.Vertex(tk.start))
		z := b.balancer(graph.Vertex(tk.start), tk.size)
		if ideal && len(gam) == 2 {
			if c1 := b.sharedPart(z, gam[0].in, gam[1].in); c1 >= 0 {
				b.case2b(tk, z, c1)
				continue
			}
		}
		// Case 1 / Case 2(a) of §4.3, and every split of §4.2: z takes the
		// component's Γ and its parts hang under it.
		b.place(z, graph.Vertex(tk.parent), tk.g, tk.ng)
		b.split(z, tk.size, gam, -1)
	}
	b.finish()
	return h
}

// centroids is one centroidDecomposition's scratch.
type centroids struct {
	t *graph.Tree
	h *TreeDecomposition

	// pre, up and size hold the last dfs's preorder position, DFS parent
	// and subtree size of each vertex it walked; order and stack are its
	// preorder and its stack.
	pre, up, size []int32
	order, stack  []int32
	// pivOff and pivLen locate each placed vertex's pivot set in gamma.
	pivOff, pivLen []int32

	tasks []task    // components not yet split, last in first out
	gamma []outside // every task's Γ and each Case 2(b) pivot set {j}, appended
}

// task is a component waiting to be split: a member, its size, its parent
// in H and its Γ, gamma[g:g+ng], in vertex order.
type task struct {
	start, size, parent int32
	g, ng               int32
}

// outside is one member v of a component's Γ and its one neighbour in the
// component.
type outside struct{ v, in int32 }

// placed reports whether v is already a node of H: only placed vertices
// have a depth.
func (b *centroids) placed(v graph.Vertex) bool { return b.h.Depth[v] != 0 }

// place makes v a node of H under parent (the root if parent is -1) with
// pivot set gamma[g:g+ng].
func (b *centroids) place(v, parent graph.Vertex, g, ng int32) {
	h := b.h
	h.Parent[v] = parent
	if parent < 0 {
		h.Root = v
		h.Depth[v] = 1
	} else {
		h.Depth[v] = h.Depth[parent] + 1
	}
	b.pivOff[v], b.pivLen[v] = g, ng
}

// dfs walks the component of start: start and every vertex not yet placed
// that it reaches without crossing a placed one. start itself may be
// placed (Case 2(b) walks c1 from its junction).
func (b *centroids) dfs(start graph.Vertex) {
	b.up[start] = -1
	stack := append(b.stack, int32(start))
	k := int32(0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b.pre[v], b.order[k], b.size[v] = k, v, 1
		k++
		for _, w := range b.t.Adj(int(v)) {
			if int32(w) != b.up[v] && !b.placed(w) {
				b.up[w] = v
				stack = append(stack, int32(w))
			}
		}
	}
	for i := k - 1; i > 0; i-- { // reverse preorder: children first
		v := b.order[i]
		b.size[b.up[v]] += b.size[v]
	}
}

// child reports whether w, a neighbour of v in the component dfs walked,
// is v's DFS child (and not its DFS parent).
func (b *centroids) child(v, w graph.Vertex) bool {
	return !b.placed(w) && b.up[w] == int32(v)
}

// balancer returns the balancer of the component dfs walked from start, of
// size s: the vertex whose removal leaves parts of at most s/2 vertices,
// the lower-numbered of two, as decomptest's Balancer breaks the tie.
// Walking from start toward the one child holding more than half the
// component reaches a balancer c; a second one can only be a child of c
// with exactly half.
func (b *centroids) balancer(start graph.Vertex, s int32) graph.Vertex {
	c := start
descend:
	for {
		for _, w := range b.t.Adj(c) {
			if b.child(c, w) && 2*b.size[w] > s {
				c = w
				continue descend
			}
		}
		break
	}
	for _, w := range b.t.Adj(c) {
		if w < c && b.child(c, w) && 2*b.size[w] == s {
			return w
		}
	}
	return c
}

// within reports whether a lies in the DFS subtree of v.
func (b *centroids) within(a, v int32) bool {
	return b.pre[v] <= b.pre[a] && b.pre[a] < b.pre[v]+b.size[v]
}

// inPart reports whether a lies in the part of the component less x that
// holds x's neighbour y: y's DFS subtree if y is x's child, everything
// outside x's subtree if y is x's DFS parent.
func (b *centroids) inPart(x, y graph.Vertex, a int32) bool {
	if b.up[y] == int32(x) {
		return b.within(a, int32(y))
	}
	return !b.within(a, int32(x))
}

// partSize is the size of the part of the component less x (of size s)
// that holds x's neighbour y.
func (b *centroids) partSize(x, y graph.Vertex, s int32) int32 {
	if b.up[y] == int32(x) {
		return b.size[y]
	}
	return s - b.size[x]
}

// sharedPart returns the neighbour of z whose part holds both a1 and a2,
// or -1 if none does.
func (b *centroids) sharedPart(z graph.Vertex, a1, a2 int32) graph.Vertex {
	for _, y := range b.t.Adj(z) {
		if !b.placed(y) && b.inPart(z, y, a1) && b.inPart(z, y, a2) {
			return y
		}
	}
	return -1
}

// split pushes a task for every part of the component less x — the
// component dfs walked, of size s, with Γ gam — but the one holding x's
// neighbour skip: the part of x's neighbour y has Γ = {x} ∪ the members of
// gam attached inside it, in vertex order, and hangs under x.
func (b *centroids) split(x graph.Vertex, s int32, gam []outside, skip graph.Vertex) {
	for _, y := range b.t.Adj(x) {
		if y == skip || b.placed(y) {
			continue
		}
		g := int32(len(b.gamma))
		self, pending := outside{v: int32(x), in: int32(y)}, true
		for _, e := range gam {
			if pending && self.v < e.v {
				b.gamma, pending = append(b.gamma, self), false
			}
			if b.inPart(x, y, e.in) {
				b.gamma = append(b.gamma, e)
			}
		}
		if pending {
			b.gamma = append(b.gamma, self)
		}
		b.tasks = append(b.tasks, task{
			start: int32(y), size: b.partSize(x, y, s), parent: int32(x),
			g: g, ng: int32(len(b.gamma)) - g,
		})
	}
}

// case2b is §4.3 Case 2(b) for task tk, whose balancer z leaves both
// outside neighbours u1, u2 attached inside c1, the part of z's neighbour
// y1. The junction j = median(u1, u2, z) takes the task's place in H with
// pivot set {u1, u2}, and z hangs under j with pivot set {j}. The parts
// other than c1 see only z and hang under z; c1 less j splits into parts
// with at most two outside neighbours each, the one attached to z under z
// and the rest under j.
func (b *centroids) case2b(tk task, z, y1 graph.Vertex) {
	gam := b.gamma[tk.g : tk.g+2]
	j := b.t.Median(int(gam[0].v), int(gam[1].v), z)
	c1Size := b.partSize(z, y1, tk.size)
	b.place(j, graph.Vertex(tk.parent), tk.g, 2)
	b.place(z, j, int32(len(b.gamma)), 1)
	b.gamma = append(b.gamma, outside{v: int32(j), in: -1})
	b.split(z, tk.size, nil, y1)
	if c1Size == 1 {
		if j != y1 {
			panic(fmt.Sprintf("decomp: junction %d not the sole member of c1 {%d}", j, y1))
		}
		return
	}
	// Γ(c1) = {u1, u2, z}, in vertex order.
	c1Gamma := [3]outside{gam[0], gam[1], {v: int32(z), in: int32(y1)}}
	for i := 2; i > 0 && c1Gamma[i].v < c1Gamma[i-1].v; i-- {
		c1Gamma[i], c1Gamma[i-1] = c1Gamma[i-1], c1Gamma[i]
	}
	b.dfs(j)
	first := len(b.tasks)
	b.split(j, c1Size, c1Gamma[:], -1)
	for i := range b.tasks[first:] {
		sub := &b.tasks[first+i]
		for _, e := range b.gamma[sub.g : sub.g+sub.ng] {
			if e.v == int32(z) {
				sub.parent = int32(z)
			}
		}
	}
}

// finish copies every pivot set out of gamma into one backing array, in
// vertex order; the root's stays nil.
func (b *centroids) finish() {
	total := int32(0)
	for _, l := range b.pivLen {
		total += l
	}
	piv := make([]graph.Vertex, total)
	k := int32(0)
	for v, l := range b.pivLen {
		if l == 0 {
			continue
		}
		off := b.pivOff[v]
		for i, e := range b.gamma[off : off+l] {
			piv[k+int32(i)] = graph.Vertex(e.v)
		}
		b.h.Pivot[v] = piv[k : k+l : k+l]
		k += l
	}
}
