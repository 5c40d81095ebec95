package decomp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/decomp"
	"treesched/internal/decomp/decomptest"
	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
	"treesched/internal/workload"
)

// referenceSizes cover every tiny tree shape, sizes just under and at a
// power of two, and the largest trees the workloads decompose.
var referenceSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 31, 64, 255, 256, 1023, 4095}

// sameDecomposition reports the first difference between got and the
// reference want: Root, then every vertex's Parent, Depth and Pivot set,
// pivot order included (Layered.Walk emits π(d) in pivot order).
func sameDecomposition(got, want *decomp.TreeDecomposition) error {
	if got.Root != want.Root {
		return fmt.Errorf("root %d, reference %d", got.Root, want.Root)
	}
	for v := range want.Parent {
		if got.Parent[v] != want.Parent[v] || got.Depth[v] != want.Depth[v] {
			return fmt.Errorf("vertex %d: parent %d depth %d, reference parent %d depth %d",
				v, got.Parent[v], got.Depth[v], want.Parent[v], want.Depth[v])
		}
		if !slices.Equal(got.Pivot[v], want.Pivot[v]) || (got.Pivot[v] == nil) != (want.Pivot[v] == nil) {
			return fmt.Errorf("vertex %d: pivot %v, reference %v", v, got.Pivot[v], want.Pivot[v])
		}
	}
	return nil
}

// matchesReference checks build against the recursive reference on every
// workload topology at every reference size. Paths and caterpillars run
// §4.3's Case 2(b) at almost every level.
func matchesReference(t *testing.T, build, reference func(*graph.Tree) *decomp.TreeDecomposition) {
	for _, shape := range workload.Topologies() {
		for _, n := range referenceSizes {
			tr, err := workload.Tree(shape, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameDecomposition(build(tr), reference(tr)); err != nil {
				t.Fatalf("%s n=%d: %v", shape, n, err)
			}
		}
	}
}

func TestIdealMatchesReference(t *testing.T) {
	matchesReference(t, decomp.Ideal, decomptest.Ideal)
}

func TestBalancingMatchesReference(t *testing.T) {
	matchesReference(t, decomp.Balancing, decomptest.Balancing)
	// The adversarial tree drives the balancing pivot sets to Θ(log n)
	// members, past the ideal decomposition's two.
	for _, k := range []int{4, 8, 10} {
		tr := decomp.AdversarialBalancingTree(k)
		if err := sameDecomposition(decomp.Balancing(tr), decomptest.Balancing(tr)); err != nil {
			t.Fatalf("adversarial k=%d: %v", k, err)
		}
	}
}

// rootFixingBFS is the plain reference for RootFixing(tr, 0): a BFS from
// vertex 0 gives each vertex it reaches its parent, a depth one below the
// parent's, and the pivot set {parent}.
func rootFixingBFS(tr *graph.Tree) *decomp.TreeDecomposition {
	n := tr.N()
	h := &decomp.TreeDecomposition{
		T: tr, Parent: make([]graph.Vertex, n), Depth: make([]int, n), Pivot: make([][]graph.Vertex, n),
	}
	h.Parent[0], h.Depth[0] = -1, 1
	seen := make([]bool, n)
	seen[0] = true
	for queue := []graph.Vertex{0}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, w := range tr.Adj(v) {
			if !seen[w] {
				seen[w] = true
				h.Parent[w], h.Depth[w], h.Pivot[w] = v, h.Depth[v]+1, []graph.Vertex{v}
				queue = append(queue, w)
			}
		}
	}
	return h
}

func TestRootFixingMatchesReference(t *testing.T) {
	matchesReference(t, func(tr *graph.Tree) *decomp.TreeDecomposition { return decomp.RootFixing(tr, 0) }, rootFixingBFS)
}

// FuzzIdealMatchesReference compares Ideal, and Balancing, which shares
// its construction, with the recursive reference on random trees of up to
// 512 vertices.
func FuzzIdealMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(10))
	f.Add(int64(42), uint16(255))
	f.Add(int64(7), uint16(511))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		n := int(size)%512 + 1
		tr := graphtest.RandomTree(n, rand.New(rand.NewSource(seed)))
		if err := sameDecomposition(decomp.Ideal(tr), decomptest.Ideal(tr)); err != nil {
			t.Fatalf("ideal n=%d seed=%d: %v", n, seed, err)
		}
		if err := sameDecomposition(decomp.Balancing(tr), decomptest.Balancing(tr)); err != nil {
			t.Fatalf("balancing n=%d seed=%d: %v", n, seed, err)
		}
	})
}

// TestAdversarialTreeShape sanity-checks the construction itself: u_i is the
// balancer chosen at level i and the component sizes halve.
func TestAdversarialTreeShape(t *testing.T) {
	k := 6
	tr := decomp.AdversarialBalancingTree(k)
	ops := decomptest.NewOps(tr)
	comp := make([]graph.Vertex, tr.N())
	for i := range comp {
		comp[i] = i
	}
	for i := 1; i <= k; i++ {
		z := ops.Balancer(comp)
		if z != i {
			t.Fatalf("level %d: balancer = %d, want u_%d", i, z, i)
		}
		parts := ops.Split(comp, z)
		// The continuation component is the one containing the hub 0.
		var rest []graph.Vertex
		for _, p := range parts {
			if p[0] == 0 {
				rest = p
				break
			}
		}
		if rest == nil {
			t.Fatalf("level %d: hub component missing", i)
		}
		if len(rest) > len(comp)/2 {
			t.Fatalf("level %d: rest size %d > half of %d", i, len(rest), len(comp))
		}
		// Its outside neighbors are exactly u_1..u_i.
		nbrs := ops.Neighbors(rest)
		if len(nbrs) != i {
			t.Fatalf("level %d: |Γ| = %d (%v), want %d", i, len(nbrs), nbrs, i)
		}
		comp = rest
	}
}
