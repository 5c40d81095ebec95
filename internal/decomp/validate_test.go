package decomp

import (
	"math/rand"
	"strings"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
)

// TestValidateCatchesCorruption corrupts each decomposition property in turn
// and checks Validate reports it.
func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *TreeDecomposition {
		return Ideal(graphtest.Fig6Tree())
	}
	tests := []struct {
		name    string
		corrupt func(h *TreeDecomposition)
		wantMsg string
	}{
		{
			"wrong array sizes",
			func(h *TreeDecomposition) { h.Pivot = h.Pivot[:3] },
			"sized",
		},
		{
			"root with parent",
			func(h *TreeDecomposition) { h.Parent[h.Root] = 1 - h.Root%2 },
			"root",
		},
		{
			"broken depth",
			func(h *TreeDecomposition) {
				for v := range h.Depth {
					if v != h.Root {
						h.Depth[v] += 3
						break
					}
				}
			},
			"depth",
		},
		{
			"wrong pivot set",
			func(h *TreeDecomposition) {
				for v := range h.Pivot {
					if v != h.Root {
						h.Pivot[v] = []graph.Vertex{h.Root, v} // bogus
						break
					}
				}
			},
			"pivot",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := fresh()
			if err := h.Validate(); err != nil {
				t.Fatalf("fresh decomposition invalid: %v", err)
			}
			tc.corrupt(h)
			err := h.Validate()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestValidateCatchesLCAViolation swaps H to a structure violating the
// path-closure property: re-rooting T at 0 but reparenting one subtree
// arbitrarily breaks LCA-on-path for some pair.
func TestValidateCatchesLCAViolation(t *testing.T) {
	tr := graphtest.Fig6Tree()
	h := RootFixing(tr, 0)
	// Reparent vertex 12 (deep leaf) under vertex 9 (unrelated branch):
	// LCA_H(12, 7) becomes 9-ish, which is off the T-path between them.
	h.Parent[12] = 9
	h.computeDepths()
	// Keep array shapes valid; pivots now stale but LCA check runs first
	// for some pair. Any reported violation suffices.
	if err := h.Validate(); err == nil {
		t.Fatal("LCA violation not detected")
	}
}

func TestComponentAndChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr := graphtest.RandomTree(40, rng)
	h := Ideal(tr)
	ch := h.Children()
	count := 0
	for _, c := range ch {
		count += len(c)
	}
	if count != tr.N()-1 {
		t.Fatalf("children edges = %d, want %d", count, tr.N()-1)
	}
	if got := h.Component(h.Root); len(got) != tr.N() {
		t.Fatalf("root component has %d vertices, want %d", len(got), tr.N())
	}
	// Component sizes are consistent with depth ordering: child components
	// are strictly smaller.
	for v, p := range h.Parent {
		if p >= 0 {
			if len(h.Component(v)) >= len(h.Component(p)) {
				t.Fatalf("component of %d not smaller than its parent's", v)
			}
		}
	}
}
