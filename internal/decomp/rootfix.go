package decomp

import "treesched/internal/graph"

// RootFixing builds the root-fixing tree decomposition of §4.2: H is T
// itself re-rooted at g. Pivot size θ = 1, but the depth can be as large as
// n. The sequential Appendix-A algorithm implicitly uses this decomposition.
// One BFS from g sets each vertex's parent and depth as it places it, and
// the pivot sets share one array.
func RootFixing(t *graph.Tree, g graph.Vertex) *TreeDecomposition {
	n := t.N()
	h := &TreeDecomposition{
		T:      t,
		Root:   g,
		Parent: make([]graph.Vertex, n),
		Depth:  make([]int, n),
		Pivot:  make([][]graph.Vertex, n),
	}
	// A vertex is placed once its depth is set.
	h.Parent[g], h.Depth[g] = -1, 1
	queue := make([]graph.Vertex, 1, n)
	queue[0] = g
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, w := range t.Adj(v) {
			if h.Depth[w] == 0 {
				h.Parent[w], h.Depth[w] = v, h.Depth[v]+1
				queue = append(queue, w)
			}
		}
	}
	// C(v) is v's subtree under the rooting at g; its only neighbor is v's
	// parent (§4.2).
	pivots := make([]graph.Vertex, n-1)
	k := 0
	for v := 0; v < n; v++ {
		if v != g {
			pivots[k] = h.Parent[v]
			h.Pivot[v] = pivots[k : k+1 : k+1]
			k++
		}
	}
	return h
}
