package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/workload"
)

// TestNewTreeProperties checks every workload topology at every n ≤ 64
// against definitions that share no code with NewTree: the adjacency lists
// are ascending, symmetric and hold exactly the input edges, Parent and
// Depth are a plain BFS from vertex 0, Edges is ordered by child, and LCA
// is the climb-to-equal-depth answer for every pair.
func TestNewTreeProperties(t *testing.T) {
	for _, shape := range workload.Topologies() {
		for n := 1; n <= 64; n++ {
			edges := topologyEdges(t, shape, n)
			tr, err := graph.NewTree(n, edges)
			if err != nil {
				t.Fatalf("%s n=%d: %v", shape, n, err)
			}
			if err := checkTree(tr, edges); err != nil {
				t.Fatalf("%s n=%d: %v", shape, n, err)
			}
		}
	}
}

// topologyEdges returns the edges of the workload tree of the given shape
// in a shuffled order, each with its endpoints in a random order, so
// NewTree cannot rely on how generators list them.
func topologyEdges(t *testing.T, shape workload.Topology, n int) []graph.Edge {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	tr, err := workload.Tree(shape, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if rng.Intn(2) == 0 {
			edges[i].U, edges[i].V = edges[i].V, edges[i].U
		}
	}
	return edges
}

func checkTree(tr *graph.Tree, edges []graph.Edge) error {
	n := tr.N()
	want := make([][]graph.Vertex, n)
	for _, e := range edges {
		want[e.U] = append(want[e.U], e.V)
		want[e.V] = append(want[e.V], e.U)
	}
	for v := range n {
		slices.Sort(want[v])
		if got := tr.Adj(v); !slices.Equal(got, want[v]) || tr.Degree(v) != len(want[v]) {
			return fmt.Errorf("Adj(%d) = %v (degree %d), want %v", v, got, tr.Degree(v), want[v])
		}
	}

	// A plain BFS from vertex 0 over the input edges.
	parent, depth := make([]graph.Vertex, n), make([]int, n)
	for v := range parent {
		parent[v] = -2
	}
	parent[0] = -1
	for queue := []graph.Vertex{0}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, w := range want[v] {
			if parent[w] == -2 {
				parent[w], depth[w] = v, depth[v]+1
				queue = append(queue, w)
			}
		}
	}
	for v := range n {
		if tr.Parent(v) != parent[v] || tr.Depth(v) != depth[v] {
			return fmt.Errorf("vertex %d: parent %d depth %d, BFS gives %d and %d",
				v, tr.Parent(v), tr.Depth(v), parent[v], depth[v])
		}
	}
	for i, e := range tr.Edges() {
		if e.V != i+1 || e.U != parent[i+1] {
			return fmt.Errorf("Edges()[%d] = %v, want {%d %d}", i, e, parent[i+1], i+1)
		}
	}

	for u := range n {
		for v := range n {
			x, y := u, v
			for depth[x] > depth[y] {
				x = parent[x]
			}
			for depth[y] > depth[x] {
				y = parent[y]
			}
			for x != y {
				x, y = parent[x], parent[y]
			}
			if got := tr.LCA(u, v); got != x {
				return fmt.Errorf("LCA(%d,%d) = %d, climbing gives %d", u, v, got, x)
			}
		}
	}
	return nil
}
