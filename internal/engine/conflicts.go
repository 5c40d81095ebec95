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
// The lists come straight from the dense layout: layout.build has already
// interned every demand to a slot and every path edge to an int32 index, so
// grouping is pure array indexing over the precomputed ItemViews — no
// hashing and no second traversal of items[i].Edges. They are built by
// their first reader (Prepared.ensureMembers): a serial solve reads an
// item's groups off its view, so a cold solve never builds them.

// buildMembers groups items by demand slot and by edge index: members[g] is
// the ascending list of item ids in dense group g. Exact-sized in two passes
// over the views (count, then fill) so the backing arrays never regrow;
// entries is their total, one per item and one per path edge.
func buildMembers(views []ItemView, numDemands, numEdges int) (demandMembers, edgeMembers [][]int32, entries int) {
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
	return demandMembers, edgeMembers, total
}

// componentScratch is the component pass's reusable state, kept on the
// Prepared and used under its shardMu: per item and per group the stamp of
// the last pass that reached it, so each pass starts with every mark clear
// by taking a new stamp instead of clearing arrays, plus the traversal
// stack and ensureShards' start and kept-shard lists.
type componentScratch struct {
	stamp        uint32
	item         []uint32
	demand, edge []uint32
	members      []int
	stack        []int32
	from         []int32
	kept         []*preShard
}

// components returns the connected components of the conflict graph over
// the views that contain an item of from, each an ascending slice of item
// ids, ordered by smallest member. Entries of from at or past len(views)
// are ignored.
//
// The traversal walks from an item to every member of each of its groups,
// visiting each group once, so it costs O(Σ (1 + |path|)) over the
// components it returns. outside is the number of items known to lie in
// none of them: the pass stops once a component holds every other item
// not in an earlier one (on a contended instance, long before it has
// visited every group), and a component of every item is 0..n−1 with no
// sort.
//
// ensureShards passes as from the arrivals and the members of the stale
// shards, and as outside the items of the kept ones. That is sound
// because Apply marks stale the shard of every item that departed, and of
// every member of a group an arrival joined (delta.go): a kept component
// lost no member and none of its groups changed, so it is still closed,
// and every item outside it is an arrival or was in a stale component.
func (c *componentScratch) components(views []ItemView, demandMembers, edgeMembers [][]int32, from []int32, outside int) [][]int {
	n := len(views)
	if c.stamp++; c.stamp == 0 { // wrapped: clear every mark once
		clear(c.item)
		clear(c.demand)
		clear(c.edge)
		c.stamp = 1
	}
	stamp := c.stamp
	visited := extend(&c.item, n, 0) // 0: never visited
	dSeen := extend(&c.demand, len(demandMembers), 0)
	eSeen := extend(&c.edge, len(edgeMembers), 0)
	var out [][]int
	seen := outside // items already in a component of out, or outside
	members, stack := c.members, c.stack
	visit := func(group []int32) {
		for _, w := range group {
			if visited[w] != stamp {
				visited[w] = stamp
				members = append(members, int(w))
				stack = append(stack, w)
			}
		}
	}
	for _, v32 := range from {
		v := int(v32)
		if v >= n || visited[v] == stamp {
			continue
		}
		members = append(members[:0], v)
		visited[v] = stamp
		stack = append(stack[:0], int32(v))
		// Once the component holds every item no earlier one does, the
		// rest of its traversal could only revisit: stop there.
		for len(stack) > 0 && seen+len(members) < n {
			x := &views[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if dSeen[x.Slot] != stamp {
				dSeen[x.Slot] = stamp
				visit(demandMembers[x.Slot])
			}
			for _, e := range x.Edges {
				if eSeen[e] != stamp {
					eSeen[e] = stamp
					visit(edgeMembers[e])
				}
			}
		}
		seen += len(members)
		comp := make([]int, len(members))
		if len(members) == n {
			for i := range comp {
				comp[i] = i
			}
		} else {
			copy(comp, members)
			slices.Sort(comp)
		}
		out = append(out, comp)
	}
	c.members, c.stack = members, stack
	// Components come in discovery order; on a first build, whose from
	// ascends, that is already the order of their smallest members.
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}
