package decomp

import "treesched/internal/graph"

// Ideal builds the ideal tree decomposition of §4.3 (Lemma 4.1): depth
// O(log n) and pivot size θ ≤ 2. Every level of BuildIdealTD adds at most
// two nodes to H — a balancer z and, in Case 2(b), a junction j — while
// halving the component size, so the depth is at most 2⌈log₂ n⌉+1.
//
// The construction is iterative. A stack holds the components still to be
// split, each as one member, its size, its parent in H and its at most two
// outside neighbours Γ. Splitting one walks it once: the walk's subtree
// sizes lead to the balancer z and size every part, and each part's Γ is
// {z} plus the members of the component's Γ attached inside it. When both
// outside neighbours attach inside one part (Case 2(b)), the junction
// j = median(u1, u2, z) takes the component's place above z, and that part
// is walked once more from j to split it there. It costs O(n log n) time
// and a constant number of allocations; decomptest.Ideal is the recursion
// as the paper writes it, and this returns the identical decomposition.
//
// The construction is fully deterministic (balancers and junctions are
// unique or tie-broken by vertex number), so every processor in the
// distributed algorithm computes the same decomposition locally.
func Ideal(t *graph.Tree) *TreeDecomposition {
	return centroidDecomposition(t, true)
}
