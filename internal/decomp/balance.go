package decomp

import "treesched/internal/graph"

// Balancing builds the balancing tree decomposition of §4.2 via BuildBalTD:
// recursively root each component at a balancer (centroid), whose pivot
// set is the component's Γ. Depth is at most ⌈log₂ n⌉+1, but the pivot
// size θ can be as large as the depth. It runs Ideal's iterative
// construction without Case 2(b).
func Balancing(t *graph.Tree) *TreeDecomposition {
	return centroidDecomposition(t, false)
}
