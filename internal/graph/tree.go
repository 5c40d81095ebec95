// Package graph provides the tree-network substrate: rooted trees over a
// shared vertex set, unique paths, lowest common ancestors, medians and
// connected components.
//
// Vertices are integers 0..n-1. Every tree is rooted at its lowest-numbered
// vertex for edge identification: an edge is named by its deeper endpoint
// (EdgeID). This gives each of the n-1 edges a stable identity that all
// processors can compute locally, which the distributed protocol relies on.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Vertex is a node of a tree-network, in 0..n-1.
type Vertex = int

// EdgeID names an edge of a rooted tree by its deeper (child) endpoint.
// Valid EdgeIDs are vertices other than the root.
type EdgeID = int

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V Vertex
}

// Tree is a connected acyclic graph over vertices 0..N-1, rooted at vertex 0
// for edge naming and LCA queries. Construct with NewTree; the zero value is
// not usable.
type Tree struct {
	n int
	// The neighbours of v, ascending, are adj[off[v]:off[v+1]].
	off    []int64
	adj    []Vertex
	parent []Vertex // parent[v] in the rooting at 0; parent[0] == -1
	depth  []int    // depth[0] == 0

	// LCA in O(1): pos[v] is v's place in a DFS preorder from the root.
	// For u ≠ v with pos[u] < pos[v], the positions pos[u]+1..pos[v] hold
	// a child of LCA(u, v) and otherwise only its proper descendants, so
	// among the parents of the vertices there, LCA(u, v) has the least
	// position. lookup[k][i] is the least of pos[p]<<32 | p over the
	// parents p of positions i..i+2^k-1, so a minimum names the LCA itself.
	pos    []int64
	lookup [][]int64
}

// maxVertices bounds n so that NewTree's int32 scratch holds every
// adjacency offset.
const maxVertices = math.MaxInt32 / 2

// NewTree builds a tree over n vertices from exactly n-1 undirected edges.
// It validates connectivity and acyclicity. It takes O(n log n) time and a
// constant number of allocations: the adjacency lists come from a two-pass
// counting sort into one array, and the LCA table's rows from one slab.
func NewTree(n int, edges []Edge) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: tree must have at least one vertex, got %d", n)
	}
	if n > maxVertices {
		return nil, fmt.Errorf("graph: tree over %d vertices exceeds the limit of %d", n, maxVertices)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("graph: tree over %d vertices needs %d edges, got %d", n, n-1, len(edges))
	}
	levels := bits.Len(uint(n)) // rows k with 2^k ≤ n
	cells := levels * (n + 1)
	for k := range levels {
		cells -= 1 << k
	}
	// off, pos and the lookup rows share one slab.
	slab := make([]int64, 2*n+1+cells)
	t := &Tree{n: n, off: slab[:n+1], pos: slab[n+1 : 2*n+1]}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		t.off[e.U+1]++
		t.off[e.V+1]++
	}
	for v := range n {
		t.off[v+1] += t.off[v]
	}
	// The first pass lists every vertex's neighbours in edge order; the
	// second visits the vertices w in ascending order and appends w to
	// each of its neighbours' lists, which leaves every list ascending.
	scratch := make([]int32, 2*(n-1)+2*n)
	unsorted, next, pre := scratch[:2*(n-1)], scratch[2*(n-1):2*(n-1)+n], scratch[2*(n-1)+n:]
	for v := range n {
		next[v] = int32(t.off[v])
	}
	for _, e := range edges {
		unsorted[next[e.U]] = int32(e.V)
		next[e.U]++
		unsorted[next[e.V]] = int32(e.U)
		next[e.V]++
	}
	t.adj = make([]Vertex, 2*(n-1))
	for v := range n {
		next[v] = int32(t.off[v])
	}
	for w := range n {
		for _, v := range unsorted[t.off[w]:t.off[w+1]] {
			t.adj[next[v]] = w
			next[v]++
		}
	}
	if err := t.root(next, pre); err != nil {
		return nil, err
	}
	t.buildLCA(slab[2*n+1:], pre, levels)
	return t, nil
}

// MustTree is NewTree that panics on invalid input; intended for tests and
// examples with hand-written topologies.
func MustTree(n int, edges []Edge) *Tree {
	t, err := NewTree(n, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// NewPath builds the line-network 0-1-2-...-(n-1).
func NewPath(n int) (*Tree, error) {
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{U: v - 1, V: v})
	}
	return NewTree(n, edges)
}

// root computes parent and depth, and the DFS preorder into pre, from
// vertex 0, with stack (n entries) as scratch, and verifies the graph is
// connected (with n-1 edges, connected implies acyclic).
func (t *Tree) root(stack, pre []int32) error {
	pd := make([]int, 2*t.n)
	t.parent, t.depth = pd[:t.n], pd[t.n:]
	for v := range t.parent {
		t.parent[v] = -2 // unvisited
	}
	t.parent[0] = -1
	stack = append(stack[:0], 0)
	k := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre[k], t.pos[v] = v, int64(k)
		k++
		for _, w := range t.Adj(int(v)) {
			if t.parent[w] == -2 {
				t.parent[w] = int(v)
				t.depth[w] = t.depth[v] + 1
				stack = append(stack, int32(w))
			}
		}
	}
	if k != t.n {
		return errors.New("graph: tree is not connected")
	}
	return nil
}

// buildLCA fills the lookup rows from cells: row 0 holds the parent of the
// vertex at each preorder position (the root's is never read), row k the
// minimum of two overlapping spans of row k-1.
func (t *Tree) buildLCA(cells []int64, pre []int32, levels int) {
	t.lookup = make([][]int64, levels)
	row := cells[:t.n]
	for i, v := range pre[1:] {
		p := t.parent[v]
		row[i+1] = t.pos[p]<<32 | int64(p)
	}
	t.lookup[0], cells = row, cells[t.n:]
	for k := 1; k < levels; k++ {
		prev, half := row, 1<<(k-1)
		row, cells = cells[:t.n-2*half+1], cells[t.n-2*half+1:]
		for i := range row {
			row[i] = min(prev[i], prev[i+half])
		}
		t.lookup[k] = row
	}
}

// N returns the number of vertices.
func (t *Tree) N() int { return t.n }

// Parent returns the parent of v in the rooting at vertex 0, or -1 for the root.
func (t *Tree) Parent(v Vertex) Vertex { return t.parent[v] }

// Depth returns the number of edges from the root (vertex 0) to v.
func (t *Tree) Depth(v Vertex) int { return t.depth[v] }

// Adj returns the neighbors of v in ascending order. The returned slice is
// shared; callers must not modify it.
func (t *Tree) Adj(v Vertex) []Vertex {
	lo, hi := t.off[v], t.off[v+1]
	return t.adj[lo:hi:hi]
}

// Degree returns the number of neighbors of v.
func (t *Tree) Degree(v Vertex) int { return int(t.off[v+1] - t.off[v]) }

// Edges returns all edges as (parent, child) pairs, ordered by child vertex.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, 0, t.n-1)
	for v := 1; v < t.n; v++ {
		out = append(out, Edge{U: t.parent[v], V: v})
	}
	return out
}

// EdgeEndpoints returns the two endpoints of edge id (the deeper endpoint is
// id itself, the other is its parent).
func (t *Tree) EdgeEndpoints(id EdgeID) (Vertex, Vertex) {
	return t.parent[id], id
}

// EdgeBetween returns the EdgeID of the edge joining u and v, which must be
// adjacent; ok is false otherwise.
func (t *Tree) EdgeBetween(u, v Vertex) (EdgeID, bool) {
	if t.parent[u] == v {
		return u, true
	}
	if t.parent[v] == u {
		return v, true
	}
	return 0, false
}

// LCA returns the lowest common ancestor of u and v in the rooting at 0.
func (t *Tree) LCA(u, v Vertex) Vertex {
	if u == v {
		return u
	}
	a, b := t.pos[u], t.pos[v]
	if a > b {
		a, b = b, a
	}
	a++                                // the span a..b holds a child of the LCA
	k := bits.Len64(uint64(b-a+1)) - 1 // the largest k with 2^k ≤ b-a+1
	row := t.lookup[k]
	return int(uint32(min(row[a], row[b-1<<k+1])))
}

// Dist returns the number of edges on the unique path between u and v.
func (t *Tree) Dist(u, v Vertex) int {
	l := t.LCA(u, v)
	return t.depth[u] + t.depth[v] - 2*t.depth[l]
}

// OnPath reports whether vertex x lies on the unique path between u and v.
func (t *Tree) OnPath(x, u, v Vertex) bool {
	return t.Dist(u, x)+t.Dist(x, v) == t.Dist(u, v)
}

// Median returns the unique vertex that lies on all three pairwise paths
// among a, b and c. The paper calls this the "junction" when applied to the
// two outside neighbors and the balancer in BuildIdealTD (§4.3, Case 2(b)).
func (t *Tree) Median(a, b, c Vertex) Vertex {
	ab := t.LCA(a, b)
	bc := t.LCA(b, c)
	ac := t.LCA(a, c)
	// Exactly two of the three LCAs coincide; the remaining (deepest) one is
	// the median.
	m := ab
	if t.depth[bc] > t.depth[m] {
		m = bc
	}
	if t.depth[ac] > t.depth[m] {
		m = ac
	}
	return m
}

// PathEdges returns the EdgeIDs of the unique path between u and v, ordered
// from u's side to v's side. For u == v it returns nil.
func (t *Tree) PathEdges(u, v Vertex) []EdgeID {
	if u == v {
		return nil
	}
	l := t.LCA(u, v)
	up := make([]EdgeID, 0, t.depth[u]-t.depth[l])
	for x := u; x != l; x = t.parent[x] {
		up = append(up, x)
	}
	down := make([]EdgeID, 0, t.depth[v]-t.depth[l])
	for x := v; x != l; x = t.parent[x] {
		down = append(down, x)
	}
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return append(up, down...)
}

// PathVertices returns the vertices of the unique path between u and v,
// inclusive of both endpoints, ordered from u to v.
func (t *Tree) PathVertices(u, v Vertex) []Vertex {
	l := t.LCA(u, v)
	up := make([]Vertex, 0, t.depth[u]-t.depth[l]+1)
	for x := u; x != l; x = t.parent[x] {
		up = append(up, x)
	}
	up = append(up, l)
	down := make([]Vertex, 0, t.depth[v]-t.depth[l])
	for x := v; x != l; x = t.parent[x] {
		down = append(down, x)
	}
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return append(up, down...)
}
