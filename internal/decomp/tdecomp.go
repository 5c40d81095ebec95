// Package decomp implements the paper's decomposition machinery (§4): tree
// decompositions (root-fixing, balancing, and the ideal decomposition of
// Lemma 4.1), the transform from tree decompositions to layered
// decompositions (Lemma 4.2), and the improved length-based layered
// decomposition for line networks (§7).
package decomp

import (
	"fmt"
	"reflect"

	"treesched/internal/graph"
)

// TreeDecomposition is a rooted tree H over the vertex set of a tree-network
// T (§4.1). It satisfies: (i) every T-path through x and y also passes
// through LCA_H(x,y); (ii) for every node z, the set C(z) of z and its
// H-descendants induces a component of T. Pivot[z] records χ(z) = Γ[C(z)].
//
// Depth follows the paper's convention: the root has depth 1.
type TreeDecomposition struct {
	T      *graph.Tree
	Root   graph.Vertex
	Parent []graph.Vertex // parent in H; -1 for the root
	Depth  []int          // depth in H; Depth[Root] == 1
	Pivot  [][]graph.Vertex
}

// MaxDepth returns the depth of H (the paper's ℓ).
func (h *TreeDecomposition) MaxDepth() int {
	max := 0
	for _, d := range h.Depth {
		if d > max {
			max = d
		}
	}
	return max
}

// PivotSize returns θ: the maximum pivot-set cardinality over all nodes.
func (h *TreeDecomposition) PivotSize() int {
	max := 0
	for _, p := range h.Pivot {
		if len(p) > max {
			max = len(p)
		}
	}
	return max
}

// Capture returns µ(d) for the demand instance with the given path vertices:
// the unique path vertex of least H-depth (§4.4). The path must be non-empty.
func (h *TreeDecomposition) Capture(pathVertices []graph.Vertex) graph.Vertex {
	best := pathVertices[0]
	for _, v := range pathVertices[1:] {
		if h.Depth[v] < h.Depth[best] {
			best = v
		}
	}
	return best
}

// Children returns the children of each node in H, indexed by vertex.
func (h *TreeDecomposition) Children() [][]graph.Vertex {
	ch := make([][]graph.Vertex, len(h.Parent))
	for v, p := range h.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// Component returns C(z): z together with its descendants in H, sorted.
func (h *TreeDecomposition) Component(z graph.Vertex) []graph.Vertex {
	ch := h.Children()
	var out []graph.Vertex
	stack := []graph.Vertex{z}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		stack = append(stack, ch[v]...)
	}
	sortInts(out)
	return out
}

// Validate checks all tree-decomposition invariants exhaustively; it is
// O(n^2)-ish and intended for tests, the inspector CLI and experiments, not
// for the solve path.
func (h *TreeDecomposition) Validate() error {
	n := h.T.N()
	if len(h.Parent) != n || len(h.Depth) != n || len(h.Pivot) != n {
		return fmt.Errorf("decomp: decomposition arrays sized %d,%d,%d, want %d",
			len(h.Parent), len(h.Depth), len(h.Pivot), n)
	}
	if h.Depth[h.Root] != 1 || h.Parent[h.Root] != -1 {
		return fmt.Errorf("decomp: root %d has depth %d parent %d", h.Root, h.Depth[h.Root], h.Parent[h.Root])
	}
	seen := 0
	for v := 0; v < n; v++ {
		p := h.Parent[v]
		if v == h.Root {
			seen++
			continue
		}
		if p < 0 || p >= n {
			return fmt.Errorf("decomp: node %d has invalid parent %d", v, p)
		}
		if h.Depth[v] != h.Depth[p]+1 {
			return fmt.Errorf("decomp: node %d depth %d, parent %d depth %d", v, h.Depth[v], p, h.Depth[p])
		}
		seen++
	}
	if seen != n {
		return fmt.Errorf("decomp: H covers %d of %d vertices", seen, n)
	}

	// Property (i): for all x,y the H-LCA lies on the T-path x..y.
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			l := h.lcaH(x, y)
			if !h.T.OnPath(l, x, y) {
				return fmt.Errorf("decomp: LCA_H(%d,%d)=%d is off the T-path", x, y, l)
			}
		}
	}

	// Property (ii) + pivot correctness.
	ops := graph.NewSubtreeOps(h.T)
	for z := 0; z < n; z++ {
		comp := h.Component(z)
		if !ops.IsComponent(comp) {
			return fmt.Errorf("decomp: C(%d)=%v is not a component of T", z, comp)
		}
		want := ops.Neighbors(comp)
		got := append([]graph.Vertex(nil), h.Pivot[z]...)
		sortInts(got)
		if !equalVertexSets(got, want) {
			return fmt.Errorf("decomp: pivot set of %d is %v, want Γ[C]=%v", z, got, want)
		}
	}
	return nil
}

func (h *TreeDecomposition) lcaH(x, y graph.Vertex) graph.Vertex {
	for h.Depth[x] > h.Depth[y] {
		x = h.Parent[x]
	}
	for h.Depth[y] > h.Depth[x] {
		y = h.Parent[y]
	}
	for x != y {
		x, y = h.Parent[x], h.Parent[y]
	}
	return x
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func equalVertexSets(a, b []graph.Vertex) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
