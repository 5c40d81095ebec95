package decomp_test

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/decomp"
	"treesched/internal/decomp/decomptest"
	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
	"treesched/internal/model"
)

// kinds are the three tree decompositions a Layered can wrap.
var kinds = []struct {
	name  string
	build func(*graph.Tree) *decomp.TreeDecomposition
}{
	{"ideal", decomp.Ideal},
	{"balancing", decomp.Balancing},
	{"rootfix", func(t *graph.Tree) *decomp.TreeDecomposition { return decomp.RootFixing(t, 0) }},
}

// checkWalk pins Walk (and Assign, its wrapper) for one pair against the
// map-based oracle: same group, the path in graph.Tree.PathEdges order, and
// π(d) in the oracle's order, the path as keys of network q and π(d) as
// positions on it.
func checkWalk(t *testing.T, l *decomp.Layered, q model.TreeID, u, v graph.Vertex) {
	t.Helper()
	wantGroup, wantCrit := decomptest.Assign(l, u, v)
	tr := l.H.T
	wantPath := tr.PathEdges(u, v)

	// Oversized buffers: Walk must report how much it wrote.
	path := make([]model.EdgeKey, tr.N())
	crit := make([]int32, l.MaxCriticalSize()+1)
	group, np, nc := l.Walk(u, v, tr.LCA(u, v), q, path, crit)
	if group != wantGroup {
		t.Fatalf("(%d,%d): group %d, oracle %d", u, v, group, wantGroup)
	}
	if np != len(wantPath) {
		t.Fatalf("(%d,%d): path length %d, want %d", u, v, np, len(wantPath))
	}
	for i, e := range wantPath {
		if path[i] != model.MakeEdgeKey(q, e) {
			t.Fatalf("(%d,%d): path[%d] = %v, want %v", u, v, i, path[i], model.MakeEdgeKey(q, e))
		}
	}
	if nc != len(wantCrit) {
		t.Fatalf("(%d,%d): |π| = %d, oracle %d (%v)", u, v, nc, len(wantCrit), wantCrit)
	}
	for i, e := range wantCrit {
		if p := crit[i]; p < 0 || int(p) >= np || path[p] != model.MakeEdgeKey(q, e) {
			t.Fatalf("(%d,%d): π[%d] at position %d, oracle %v", u, v, i, p, model.MakeEdgeKey(q, e))
		}
	}
	if g, c := l.Assign(u, v); g != wantGroup || !slices.Equal(c, wantCrit) || (c == nil) != (wantCrit == nil) {
		t.Fatalf("(%d,%d): Assign = %d %v, oracle %d %v", u, v, g, c, wantGroup, wantCrit)
	}
}

func TestWalkMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		tr := graphtest.RandomTree(n, rng)
		for _, k := range kinds {
			l := decomp.NewLayered(k.build(tr))
			q := rng.Intn(4)
			checkWalk(t, l, q, 0, 0)
			for p := 0; p < 60; p++ {
				checkWalk(t, l, q, rng.Intn(n), rng.Intn(n))
			}
		}
	}
}

func TestWalkWritesEdgeKeys(t *testing.T) {
	l := decomp.NewLayered(decomp.Ideal(graphtest.Fig6Tree()))
	tr := l.H.T
	path := make([]model.EdgeKey, 15)
	crit := make([]int32, l.MaxCriticalSize())
	group, np, nc := l.Walk(3, 12, tr.LCA(3, 12), 3, path, crit)
	rawGroup, rawCrit := l.Assign(3, 12)
	if group != rawGroup || nc != len(rawCrit) || nc == 0 || nc > 6 {
		t.Fatalf("Walk = group %d |π| %d, Assign = group %d π %v", group, nc, rawGroup, rawCrit)
	}
	for i, k := range path[:np] {
		if k.Tree() != 3 {
			t.Errorf("path[%d] on tree %d, want 3", i, k.Tree())
		}
	}
	for i, p := range crit[:nc] {
		if k := path[p]; k.Tree() != 3 || k.Edge() != rawCrit[i] {
			t.Errorf("π[%d] at position %d = %v, want T3/e%d", i, p, k, rawCrit[i])
		}
	}
}

// FuzzLayeredWalk pins the one-pass walk to the map-based oracle over
// random trees, every decomposition kind and arbitrary endpoint pairs.
func FuzzLayeredWalk(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(3), uint8(12), uint8(0))
	f.Add(int64(5), uint8(120), uint8(7), uint8(7), uint8(1))
	f.Add(int64(9), uint8(200), uint8(0), uint8(199), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size, a, b, kind uint8) {
		n := int(size)%200 + 1
		tr := graphtest.RandomTree(n, rand.New(rand.NewSource(seed)))
		k := kinds[int(kind)%len(kinds)]
		checkWalk(t, decomp.NewLayered(k.build(tr)), int(kind), int(a)%n, int(b)%n)
	})
}
