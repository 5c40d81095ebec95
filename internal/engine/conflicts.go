package engine

import "slices"

// This file holds the conflict structure of §2: two items conflict iff they
// share a demand or share an edge (which implies the same resource, since
// edge keys embed the resource id). Every demand and every edge is thus a
// clique of the conflict graph, and the graph is exactly the union of those
// cliques. An item's view names its cliques — its demand slot and its path
// edge indices — so the views are the whole structure, and every reader
// has an exact form over them: the MIS elections (package mis) compare
// priorities per group, and the component pass joins items through the
// groups they share with a union–find.
//
// Member lists — per demand slot or edge index, the ascending ids of the
// items in it — are built only where a reader needs a group's members.
// The demand lists serve ItemsOfDemand and Apply, which patches them in
// place; the edge lists serve dist alone, which EdgeMembers builds them
// for on each call. Both come straight from the dense layout: layout.build
// has already interned every demand to a slot and every path edge to an
// int32 index, so grouping is pure array indexing over the views — no
// hashing and no second traversal of items[i].Edges. A serial solve reads
// an item's groups off its view, so a cold solve builds no list.

// buildMembers groups items by demand slot, or, with edges set, by edge
// index: members[g] is the ascending list of item ids in dense group g.
// Exact-sized in two passes over the views (count, then fill) so the
// backing array never regrows; entries is its total, one per item or one
// per path edge.
func buildMembers(views []ItemView, groups int, edges bool) (members [][]int32, entries int) {
	counts := make([]int32, groups)
	for i := range views {
		v := &views[i]
		if !edges {
			counts[v.Slot]++
			continue
		}
		for _, e := range v.Edges {
			counts[e]++
		}
		entries += len(v.Edges)
	}
	if !edges {
		entries = len(views)
	}
	flat := make([]int32, entries)
	members = make([][]int32, groups)
	off := 0
	for g, c := range counts {
		members[g] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for i := range views {
		v := &views[i]
		if !edges {
			members[v.Slot] = append(members[v.Slot], int32(i))
			continue
		}
		for _, e := range v.Edges {
			members[e] = append(members[e], int32(i))
		}
	}
	return members, entries
}

// componentScratch is the component pass's reusable state, kept on the
// Prepared and used under its mu: per item the stamp of the last pass
// whose region held it, its union–find parent and its component label;
// per group the stamp of the last pass that reached it and the first
// region item it reached there; the region, the groups reached in order,
// and ensureShards' start and fresh-shard lists. Each pass starts with
// every mark clear by taking a new stamp instead of clearing arrays.
type componentScratch struct {
	stamp         uint32
	item          []uint32
	parent, label []int32
	demand, edge  []groupMark
	region        []int32
	reachedD      []int32
	reachedE      []int32
	counts        []int32
	from          []int32
	fresh         []*preShard
}

// groupMark is a group's entry in a component pass: the stamp of the last
// pass that reached the group, and the first region item it reached there.
type groupMark struct {
	stamp uint32
	rep   int32
}

// components returns the connected components of the conflict graph over
// a region of the items — every item when all is set, else the items of
// from below len(views) — as fresh shards ordered by smallest member: each
// with its component's ids, ascending, and the demand slots and edge
// indices they use, each once. The region must be closed: no item outside
// it shares a group with an item in it. The shards are valid until the
// next pass: the returned slice is the scratch's.
//
// One pass over the region's views joins each item, through a union–find,
// with the first region item that reached each of its groups, so it costs
// O(Σ (1 + |path|)) over the region, near-linear. Roots are the least
// members of their sets, so one ascending walk labels the components by
// smallest member and lists their ids in order, with no sort but the
// region's own.
//
// ensureShards passes as from the arrivals and the members of the stale
// shards. Their region is closed because Apply marks stale the shard of
// every item that departed, and the owner of every group an arrival
// joined (delta.go): a kept component lost no member and none of its
// groups changed, so it is still closed, and every item outside it is an
// arrival or was in a stale component.
//
//schedvet:hot
func (c *componentScratch) components(views []ItemView, from []int32, all bool, numDemands, numEdges int) []*preShard {
	n := len(views)
	if c.stamp++; c.stamp == 0 { // wrapped: clear every mark once
		clear(c.item)
		clear(c.demand)
		clear(c.edge)
		c.stamp = 1
	}
	stamp := c.stamp
	inRegion := extend(&c.item, n, 0)
	parent := extend(&c.parent, n, 0)
	label := extend(&c.label, n, 0)
	dMark := extend(&c.demand, numDemands, groupMark{})
	eMark := extend(&c.edge, numEdges, groupMark{})

	region := c.region[:0]
	if all {
		for i := 0; i < n; i++ {
			region = append(region, int32(i))
		}
	} else {
		for _, x := range from {
			if int(x) < n && inRegion[x] != stamp {
				inRegion[x] = stamp
				region = append(region, x)
			}
		}
		slices.Sort(region)
	}
	c.region = region

	// Join every item with the first item each of its groups reached. No
	// set joined x before its turn, so rx, its root, starts as x.
	reachedD, reachedE := c.reachedD[:0], c.reachedE[:0]
	for _, x := range region {
		parent[x] = x
	}
	for _, x := range region {
		v := &views[x]
		rx := x
		if m := &dMark[v.Slot]; m.stamp != stamp {
			*m = groupMark{stamp, x}
			reachedD = append(reachedD, v.Slot)
		} else if r := find(parent, m.rep); r != rx {
			rx = link(parent, rx, r)
		}
		for _, e := range v.Edges {
			if m := &eMark[e]; m.stamp != stamp {
				*m = groupMark{stamp, x}
				reachedE = append(reachedE, e)
			} else if r := find(parent, m.rep); r != rx {
				rx = link(parent, rx, r)
			}
		}
	}
	c.reachedD, c.reachedE = reachedD, reachedE

	// Label the sets in ascending order of their roots, the least
	// members, so a set's root is labeled before its other members.
	// counts holds three counts per component: items, slots, edges.
	counts := c.counts[:0]
	for _, x := range region {
		if r := find(parent, x); r == x {
			label[x] = int32(len(counts) / 3)
			counts = append(counts, 0, 0, 0)
		} else {
			label[x] = label[r]
		}
		counts[3*label[x]]++
	}
	for _, g := range reachedD {
		counts[3*label[dMark[g].rep]+1]++
	}
	for _, g := range reachedE {
		counts[3*label[eMark[g].rep]+2]++
	}
	c.counts = counts

	// One slab of shards, one of ids and one of groups, cut by the counts.
	k := len(counts) / 3
	shards := make([]preShard, k)
	ids := make([]int, len(region))
	groups := make([]int32, len(reachedD)+len(reachedE))
	fresh := c.fresh[:0]
	for i := range shards {
		sh := &shards[i]
		ni, ns, ne := int(counts[3*i]), int(counts[3*i+1]), int(counts[3*i+2])
		sh.comp, ids = ids[:0:ni], ids[ni:]
		sh.slots, groups = groups[:0:ns], groups[ns:]
		sh.edges, groups = groups[:0:ne], groups[ne:]
		fresh = append(fresh, sh)
	}
	for _, x := range region {
		sh := fresh[label[x]]
		sh.comp = append(sh.comp, int(x))
	}
	for _, g := range reachedD {
		sh := fresh[label[dMark[g].rep]]
		sh.slots = append(sh.slots, g)
	}
	for _, g := range reachedE {
		sh := fresh[label[eMark[g].rep]]
		sh.edges = append(sh.edges, g)
	}
	c.fresh = fresh
	return fresh
}

// find returns the root of x's set, halving the path it walks.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// link joins two distinct roots' sets under the lesser root, which it
// returns, so a root is always its set's least member.
func link(parent []int32, a, b int32) int32 {
	if b < a {
		a, b = b, a
	}
	parent[b] = a
	return a
}
