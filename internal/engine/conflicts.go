package engine

import "slices"

// This file holds the conflict structure of §2: two items conflict iff they
// share a demand or share an edge (which implies the same resource, since
// edge keys embed the resource id). Every demand and every edge is thus a
// clique of the conflict graph, and the graph is exactly the union of those
// cliques. The engine keeps only the cliques: per demand slot and per edge
// index, the ascending list of member item ids. Those lists cost
// Σ (1 + |path|) entries where an adjacency would cost Σ deg, and every
// reader has an exact form over them — the MIS elections (package mis)
// compare priorities per group, components traverse from item to item
// through shared groups, and Prepared.Apply patches the lists in place.
//
// The lists come straight from the dense layout: buildLayout has already
// interned every demand to a slot and every path edge to an int32 index, so
// grouping is pure array indexing over the precomputed ItemViews — no
// hashing and no second traversal of items[i].Edges.

// buildMembers groups items by demand slot and by edge index: members[g] is
// the ascending list of item ids in dense group g. Exact-sized in two passes
// over the views (count, then fill) so the backing arrays never regrow.
func buildMembers(views []ItemView, numDemands, numEdges int) (demandMembers, edgeMembers [][]int32) {
	dCounts := make([]int32, numDemands)
	eCounts := make([]int32, numEdges)
	total := 0
	for i := range views {
		v := &views[i]
		dCounts[v.Slot]++
		for _, e := range v.Edges {
			eCounts[e]++
		}
		total += 1 + len(v.Edges)
	}
	flat := make([]int32, total)
	demandMembers = make([][]int32, numDemands)
	edgeMembers = make([][]int32, numEdges)
	off := 0
	for s, c := range dCounts {
		demandMembers[s] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for e, c := range eCounts {
		edgeMembers[e] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for i := range views {
		v := &views[i]
		demandMembers[v.Slot] = append(demandMembers[v.Slot], int32(i))
		for _, e := range v.Edges {
			edgeMembers[e] = append(edgeMembers[e], int32(i))
		}
	}
	return demandMembers, edgeMembers
}

// conflictComponents returns the connected components of the conflict graph
// over the views: each component an ascending slice of item ids, components
// ordered by smallest member. The traversal walks from an item to every
// member of each of its groups, visiting each group once, so it costs
// O(Σ (1 + |path|)). It stops once the current component holds every item
// not in an earlier one (on a contended instance, long before it has
// visited every group), and a component of every item is 0..n−1 with no
// sort.
//
// prev and touched refresh an earlier decomposition after churn: every
// previous component none of whose members is touched is kept verbatim and
// only the rest is traversed (nil prev traverses everything). The reuse is
// sound because Apply marks every member of every group whose list changed
// (delta.go). An untouched component's groups therefore hold exactly the
// members they held before, all inside the component, so it is still
// closed. A member id at or past len(views) departed when the set shrank;
// such components are always traversed again. The output equals a
// from-scratch decomposition.
func conflictComponents(views []ItemView, demandMembers, edgeMembers [][]int32, prev [][]int, touched []bool) [][]int {
	visited := make([]bool, len(views))
	dSeen := make([]bool, len(demandMembers))
	eSeen := make([]bool, len(edgeMembers))
	out := make([][]int, 0, len(prev))
	seen := 0 // items already in a component of out
	for _, members := range prev {
		clean := true
		for _, id := range members {
			if id >= len(views) || touched[id] {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		for _, id := range members {
			visited[id] = true
		}
		seen += len(members)
		out = append(out, members)
	}
	var members []int
	var stack []int32
	visit := func(group []int32) {
		for _, w := range group {
			if !visited[w] {
				visited[w] = true
				members = append(members, int(w))
				stack = append(stack, w)
			}
		}
	}
	for v := range views {
		if visited[v] {
			continue
		}
		members = []int{v}
		visited[v] = true
		stack = append(stack[:0], int32(v))
		// Once the component holds every item no earlier one does, the
		// rest of its traversal could only revisit: stop there.
		for len(stack) > 0 && seen+len(members) < len(views) {
			x := &views[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if !dSeen[x.Slot] {
				dSeen[x.Slot] = true
				visit(demandMembers[x.Slot])
			}
			for _, e := range x.Edges {
				if !eSeen[e] {
					eSeen[e] = true
					visit(edgeMembers[e])
				}
			}
		}
		seen += len(members)
		if len(members) == len(views) {
			for i := range members {
				members[i] = i
			}
		} else {
			slices.Sort(members)
		}
		out = append(out, members)
	}
	if len(prev) > 0 {
		slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	}
	return out
}
