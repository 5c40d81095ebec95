package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNeighborsOfComponent(t *testing.T) {
	tr := fig6Tree(t)
	ops := NewSubtreeOps(tr)
	tests := []struct {
		comp []Vertex
		want []Vertex
	}{
		// Paper §4.1: C(2) = {2,4} (1-indexed) has pivot set {1,5};
		// our labels: C = {1,3} has neighbors {0,4}.
		{[]Vertex{1, 3}, []Vertex{0, 4}},
		// Paper: C(5) = {5,9,8,2,12,13,4} has neighborhood {1}; ours:
		// {4,8,7,1,11,12,3} -> {0}.
		{[]Vertex{1, 3, 4, 7, 8, 11, 12}, []Vertex{0}},
		// Whole tree has no neighbors.
		{[]Vertex{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []Vertex{}},
	}
	for _, tc := range tests {
		got := ops.Neighbors(tc.comp)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Neighbors(%v) = %v, want %v", tc.comp, got, tc.want)
		}
	}
}

func TestNeighborsSeparateComponentFromOutside(t *testing.T) {
	// Property (§4.1): for x in C and y outside C, the path x->y passes
	// through some neighbor of C.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(60)
		tr := randomTree(n, rng)
		ops := NewSubtreeOps(tr)
		// Build a random component by BFS from a random vertex.
		size := 1 + rng.Intn(n-1)
		start := rng.Intn(n)
		comp := []Vertex{start}
		seen := map[Vertex]bool{start: true}
		frontier := []Vertex{start}
		for len(comp) < size && len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for _, w := range tr.Adj(v) {
				if !seen[w] && len(comp) < size {
					seen[w] = true
					comp = append(comp, w)
					frontier = append(frontier, w)
				}
			}
		}
		sort.Ints(comp)
		nbrs := ops.Neighbors(comp)
		isNbr := map[Vertex]bool{}
		for _, u := range nbrs {
			isNbr[u] = true
		}
		for _, x := range comp {
			for y := 0; y < n; y++ {
				if seen[y] {
					continue
				}
				found := false
				for _, pv := range tr.PathVertices(x, y) {
					if isNbr[pv] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("path %d->%d avoids Γ[C]=%v for comp %v", x, y, nbrs, comp)
				}
			}
		}
	}
}

func TestIsComponent(t *testing.T) {
	tr := fig6Tree(t)
	ops := NewSubtreeOps(tr)
	if ops.IsComponent([]Vertex{9, 10}) {
		t.Errorf("{9,10} should not be a component (both leaves under 5)")
	}
	if !ops.IsComponent([]Vertex{5, 9, 10}) {
		t.Errorf("{5,9,10} should be a component")
	}
	if ops.IsComponent(nil) {
		t.Errorf("empty set should not be a component")
	}
}
