package decomp

import (
	"treesched/internal/graph"
	"treesched/internal/model"
)

// Layered is a layered decomposition (§4.4) of one tree-network: an
// assignment of every demand instance to a group 1..Length (the paper's σ,
// group 1 processed first) plus the critical-edge map π. It is derived from
// a tree decomposition via Lemma 4.2, so ∆ = 2(θ+1) and Length = depth(H).
type Layered struct {
	H      *TreeDecomposition
	Length int // number of groups ℓ

	maxCritical int // ∆ = 2(θ+1), fixed by H
}

// NewLayered wraps a tree decomposition as a layered decomposition.
func NewLayered(h *TreeDecomposition) *Layered {
	return &Layered{H: h, Length: h.MaxDepth(), maxCritical: 2 * (h.PivotSize() + 1)}
}

// Assign computes the group index (1-based; 1 = processed first = captured
// deepest) and the critical edges π(d) for the demand instance with
// endpoints u, v, following the construction in the proof of Lemma 4.2:
// π(d) contains the wings of the capture node µ(d) on path(d) plus, for
// each pivot neighbor of C(µ(d)), the wings of the bending point of d with
// respect to that neighbor. |π(d)| ≤ 2(θ+1). It is Walk with its own
// buffers.
func (l *Layered) Assign(u, v graph.Vertex) (group int, critical []graph.EdgeID) {
	t := l.H.T
	path := make([]model.EdgeKey, t.Dist(u, v))
	crit := make([]int32, l.maxCritical)
	group, _, n := l.Walk(u, v, t.LCA(u, v), 0, path, crit)
	for _, i := range crit[:n] {
		critical = append(critical, path[i].Edge())
	}
	return group, critical
}

// Walk computes Assign's result and the path itself in one pass over
// path(d). lca must be the LCA of u and v, which a caller sizing the path
// has already computed. The path's edges, as EdgeKeys of network q ordered
// from u's side to v's side, go to path, and π(d) goes to crit as positions
// on the path: crit[j] = i names the edge path[i]. It returns the group and
// the number of entries written to each. path needs room for Dist(u, v)
// keys and crit for MaxCriticalSize positions.
//
// Everything Lemma 4.2 needs is a position on the path. With du =
// depth(u) − depth(lca), the path's vertices in u-to-v order are u's
// ancestors up to lca (position i at depth depth(u) − i), then v's side
// (position i at depth depth(lca) + i − du). A wing of the vertex at
// position i is the path edge before it and the one after it, so µ(d) —
// tracked during the walk — and each bending point need no
// vertex-to-position lookup, and π(d), at most 2(θ+1) positions, is
// deduplicated by scanning what it already holds. A caller that numbers
// the path's edges reads π(d)'s numbers off the same positions.
//
//schedvet:hot
func (l *Layered) Walk(u, v, lca graph.Vertex, q model.TreeID, path []model.EdgeKey, crit []int32) (group, pathLen, critLen int) {
	t, h := l.H.T, l.H
	du := t.Depth(u) - t.Depth(lca)
	n := du + t.Depth(v) - t.Depth(lca)
	path = path[:n]

	// µ(d) is the path vertex of least H-depth (TreeDecomposition.Capture);
	// it is unique, since two path vertices of equal depth would have a
	// shallower H-LCA on the path between them (property (i)), so the
	// order in which the climbs meet the vertices cannot matter.
	z, zPos := u, 0
	x := u
	for i := 0; i < du; i++ {
		path[i] = model.MakeEdgeKey(q, x) // an edge is named by its deeper endpoint
		x = t.Parent(x)
		if h.Depth[x] < h.Depth[z] {
			z, zPos = x, i+1
		}
	}
	x = v
	for i := n; i > du; i-- { // x sits at position i
		path[i-1] = model.MakeEdgeKey(q, x)
		if h.Depth[x] < h.Depth[z] {
			z, zPos = x, i
		}
		x = t.Parent(x)
	}

	c := addWings(crit, 0, zPos, n)
	for _, nb := range h.Pivot[z] {
		// The bending point of d with respect to nb is the path vertex
		// closest to nb: the median of u, v and nb, which is the deepest of
		// LCA(u,v), LCA(u,nb) and LCA(v,nb) (graph.Tree.Median). At most one
		// of the last two lies below lca, on its endpoint's side.
		pos := du
		if a := t.LCA(u, nb); t.Depth(a) > t.Depth(lca) {
			pos = t.Depth(u) - t.Depth(a)
		} else if b := t.LCA(v, nb); t.Depth(b) > t.Depth(lca) {
			pos = du + t.Depth(b) - t.Depth(lca)
		}
		c = addWings(crit, c, pos, n)
	}
	return l.Length - h.Depth[z] + 1, n, c
}

// addWings appends to crit[:c] the wings of the vertex at position i of a
// path of n edges — the position of the edge before it, then of the one
// after it — skipping any already present, and returns the new count.
//
//schedvet:hot
func addWings(crit []int32, c, i, n int) int {
	if i > 0 {
		c = addCritical(crit, c, int32(i-1))
	}
	if i < n {
		c = addCritical(crit, c, int32(i))
	}
	return c
}

func addCritical(crit []int32, c int, pos int32) int {
	for _, p := range crit[:c] {
		if p == pos {
			return c
		}
	}
	crit[c] = pos
	return c + 1
}

// MaxCriticalSize returns the guaranteed bound ∆ = 2(θ+1) of Lemma 4.2.
func (l *Layered) MaxCriticalSize() int { return l.maxCritical }

// LineAssign computes the group and critical slots for a line demand
// instance per §7: groups partition instances by length into
// ⌈log₂(Lmax/Lmin)⌉+1 categories (group i holds lengths in
// [2^(i-1)·Lmin, 2^i·Lmin)), and π(d) = {s(d), mid(d), e(d)}, so ∆ = 3.
// lmin is the minimum instance length over the whole input.
func LineAssign(di *model.LineDemandInstance, lmin int) (group int, critical []int) {
	group = 1
	for l := di.Len(); l >= 2*lmin; l /= 2 {
		group++
	}
	critical = append(critical, di.Start)
	if m := di.Mid(); m != di.Start && m != di.End {
		critical = append(critical, m)
	}
	if di.End != di.Start {
		critical = append(critical, di.End)
	}
	return group, critical
}

// LineGroups returns the number of groups for the given length range:
// ⌈log₂(Lmax/Lmin)⌉+1 (at least 1).
func LineGroups(lmin, lmax int) int {
	g := 1
	for l := lmax; l >= 2*lmin; l /= 2 {
		g++
	}
	return g
}
