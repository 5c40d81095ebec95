package mis

import (
	"maps"
	"slices"
)

// The adjacency form of Luby, kept as the oracle the group form is pinned
// against: same draw schedule, same (priority, index) tie-break, but over
// explicit adjacency lists.

// lubyAdj computes a maximal independent set of the graph whose vertices
// are 0..len(owners)-1 and whose adjacency is adj (symmetric, no
// self-loops). A vertex wins an iteration if it beats all live neighbors
// (ties by index); winners and their live neighbors leave.
func lubyAdj(owners []int, adj [][]int, draw Drawer) (inMIS []bool, iterations int) {
	n := len(owners)
	inMIS = make([]bool, n)
	live := make([]bool, n)
	liveCount := n
	for i := range live {
		live[i] = true
	}
	priority := make([]float64, n)
	win := make([]bool, n)
	for liveCount > 0 {
		iterations++
		for v := 0; v < n; v++ {
			if live[v] {
				priority[v] = draw(owners[v])
			}
		}
		for v := 0; v < n; v++ {
			if !live[v] {
				win[v] = false
				continue
			}
			wins := true
			for _, w := range adj[v] {
				if !live[w] {
					continue
				}
				if priority[w] < priority[v] || (priority[w] == priority[v] && w < v) {
					wins = false
					break
				}
			}
			win[v] = wins
		}
		for v := 0; v < n; v++ {
			if !win[v] || !live[v] {
				continue
			}
			inMIS[v] = true
			live[v] = false
			liveCount--
			for _, w := range adj[v] {
				if live[w] {
					live[w] = false
					liveCount--
				}
			}
		}
	}
	return inMIS, iterations
}

// coverAdjacency materializes the conflict graph of a cover: every pair of
// members of a group, deduplicated by Normalize.
func coverAdjacency(c *Cover) [][]int {
	n := len(c.Demand)
	dGroups := make([][]int, c.NumDemands)
	eGroups := make([][]int, c.NumEdges)
	for v := 0; v < n; v++ {
		dGroups[c.Demand[v]] = append(dGroups[c.Demand[v]], v)
		for _, g := range c.Edges[v] {
			eGroups[g] = append(eGroups[g], v)
		}
	}
	adj := make([][]int, n)
	for _, group := range append(dGroups, eGroups...) {
		for _, v := range group {
			adj[v] = append(adj[v], group...)
		}
	}
	return Normalize(n, adj)
}

// Verify checks that membership is an independent set (no two adjacent
// members) and maximal (every non-member has a member neighbor).
func Verify(adj [][]int, inMIS []bool) (independent, maximal bool) {
	independent, maximal = true, true
	for v := range adj {
		if inMIS[v] {
			for _, w := range adj[v] {
				if inMIS[w] {
					independent = false
				}
			}
			continue
		}
		covered := false
		for _, w := range adj[v] {
			if inMIS[w] {
				covered = true
				break
			}
		}
		if !covered {
			maximal = false
		}
	}
	return independent, maximal
}

// Normalize sorts and deduplicates adjacency lists and drops self-loops,
// returning a cleaned copy.
func Normalize(n int, adj [][]int) [][]int {
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		seen := make(map[int]struct{}, len(adj[v]))
		for _, w := range adj[v] {
			if w == v {
				continue
			}
			seen[w] = struct{}{}
		}
		out[v] = slices.Sorted(maps.Keys(seen))
	}
	return out
}
