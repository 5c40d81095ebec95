// Package graph provides the tree-network substrate: rooted trees over a
// shared vertex set, unique paths, lowest common ancestors, medians,
// connected components and centroids (the paper's "balancers").
//
// Vertices are integers 0..n-1. Every tree is rooted at its lowest-numbered
// vertex for edge identification: an edge is named by its deeper endpoint
// (EdgeID). This gives each of the n-1 edges a stable identity that all
// processors can compute locally, which the distributed protocol relies on.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
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
	n      int
	adj    [][]Vertex
	parent []Vertex // parent[v] in the rooting at 0; parent[0] == -1
	depth  []int    // depth[0] == 0
	order  []Vertex // vertices in BFS order from the root

	// Euler tour + sparse table for O(1) LCA queries.
	euler  []Vertex
	first  []int
	lookup [][]int32 // sparse table over euler indices, minimizing depth
}

// NewTree builds a tree over n vertices from exactly n-1 undirected edges.
// It validates connectivity and acyclicity.
func NewTree(n int, edges []Edge) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: tree must have at least one vertex, got %d", n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("graph: tree over %d vertices needs %d edges, got %d", n, n-1, len(edges))
	}
	adj := make([][]Vertex, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	// Sort adjacency lists so traversals are deterministic.
	for _, nb := range adj {
		sort.Ints(nb)
	}
	t := &Tree{n: n, adj: adj}
	if err := t.root(); err != nil {
		return nil, err
	}
	t.buildLCA()
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

// root computes parent/depth/order by BFS from vertex 0 and verifies the
// graph is connected (with n-1 edges, connected implies acyclic).
func (t *Tree) root() error {
	t.parent = make([]Vertex, t.n)
	t.depth = make([]int, t.n)
	t.order = make([]Vertex, 0, t.n)
	for v := range t.parent {
		t.parent[v] = -2 // unvisited
	}
	t.parent[0] = -1
	queue := []Vertex{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		t.order = append(t.order, v)
		for _, w := range t.adj[v] {
			if t.parent[w] == -2 {
				t.parent[w] = v
				t.depth[w] = t.depth[v] + 1
				queue = append(queue, w)
			}
		}
	}
	if len(t.order) != t.n {
		return errors.New("graph: tree is not connected")
	}
	return nil
}

func (t *Tree) buildLCA() {
	t.euler = make([]Vertex, 0, 2*t.n-1)
	t.first = make([]int, t.n)
	for i := range t.first {
		t.first[i] = -1
	}
	// Iterative Euler tour.
	type frame struct {
		v    Vertex
		next int // index into adj[v]
	}
	stack := []frame{{v: 0}}
	t.visit(0)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for f.next < len(t.adj[f.v]) {
			w := t.adj[f.v][f.next]
			f.next++
			if w != t.parent[f.v] {
				stack = append(stack, frame{v: w})
				t.visit(w)
				advanced = true
				break
			}
		}
		if !advanced {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				t.visit(stack[len(stack)-1].v)
			}
		}
	}
	// Sparse table over euler positions minimizing vertex depth.
	m := len(t.euler)
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	t.lookup = make([][]int32, levels)
	t.lookup[0] = make([]int32, m)
	for i, v := range t.euler {
		t.lookup[0][i] = int32(v)
	}
	for k := 1; k < levels; k++ {
		span := 1 << k
		row := make([]int32, m-span+1)
		prev := t.lookup[k-1]
		half := span / 2
		for i := range row {
			a, b := prev[i], prev[i+half]
			if t.depth[a] <= t.depth[b] {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		t.lookup[k] = row
	}
}

func (t *Tree) visit(v Vertex) {
	if t.first[v] < 0 {
		t.first[v] = len(t.euler)
	}
	t.euler = append(t.euler, v)
}

// N returns the number of vertices.
func (t *Tree) N() int { return t.n }

// Parent returns the parent of v in the rooting at vertex 0, or -1 for the root.
func (t *Tree) Parent(v Vertex) Vertex { return t.parent[v] }

// Depth returns the number of edges from the root (vertex 0) to v.
func (t *Tree) Depth(v Vertex) int { return t.depth[v] }

// Adj returns the neighbors of v in ascending order. The returned slice is
// shared; callers must not modify it.
func (t *Tree) Adj(v Vertex) []Vertex { return t.adj[v] }

// Degree returns the number of neighbors of v.
func (t *Tree) Degree(v Vertex) int { return len(t.adj[v]) }

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
	a, b := t.first[u], t.first[v]
	if a > b {
		a, b = b, a
	}
	k := bits.Len(uint(b-a+1)) - 1 // the largest k with 2^k ≤ b-a+1
	x := t.lookup[k][a]
	y := t.lookup[k][b-(1<<k)+1]
	if t.depth[x] <= t.depth[y] {
		return int(x)
	}
	return int(y)
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
