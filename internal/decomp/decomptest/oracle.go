// Package decomptest holds the reference forms the decomposition code is
// tested against: the recursive §4.2 and §4.3 constructions over explicit
// component lists (Balancing, Ideal, and the Balancer and Split they
// need), against which decomp's flat iterative construction is tested,
// and the layered decomposition's assignment (Lemma 4.2), against which
// the one-pass Layered.Walk and the engine's item builder are tested.
package decomptest

import (
	"treesched/internal/decomp"
	"treesched/internal/graph"
)

// Assign is Layered.Assign written as the proof of Lemma 4.2 reads: list
// the path's vertices and edges, capture µ(d) with
// TreeDecomposition.Capture, find each bending point with graph.Tree.Median
// and look its position up in a map, and deduplicate π(d) through a set.
func Assign(l *decomp.Layered, u, v graph.Vertex) (group int, critical []graph.EdgeID) {
	t := l.H.T
	pathV := t.PathVertices(u, v)
	pathE := t.PathEdges(u, v)
	z := l.H.Capture(pathV)
	group = l.Length - l.H.Depth[z] + 1

	pos := make(map[graph.Vertex]int, len(pathV))
	for i, x := range pathV {
		pos[x] = i
	}
	seen := make(map[graph.EdgeID]bool, 2*(len(l.H.Pivot[z])+1))
	addWings := func(y graph.Vertex) {
		i := pos[y]
		if i > 0 && !seen[pathE[i-1]] {
			seen[pathE[i-1]] = true
			critical = append(critical, pathE[i-1])
		}
		if i < len(pathE) && !seen[pathE[i]] {
			seen[pathE[i]] = true
			critical = append(critical, pathE[i])
		}
	}
	addWings(z)
	for _, nb := range l.H.Pivot[z] {
		addWings(t.Median(u, v, nb))
	}
	return group, critical
}
