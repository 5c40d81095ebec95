// Package mis computes maximal independent sets on conflict graphs with
// Luby's randomized algorithm (the paper's Time(MIS) = O(log N) choice
// [14]), in a form shared verbatim between the in-process engine and the
// message-passing protocol.
//
// The graph is never materialized: the algorithm reads it as the clique
// cover it comes from. By §2 two demand instances conflict iff they share a
// demand or an edge, so every demand and every edge is a clique of the
// conflict graph and the graph is exactly the union of those cliques. An
// adjacency list costs Σ deg; the cover costs Σ (1 + |path|).
//
// The decisive design point is the draw schedule: priorities are drawn from
// per-demand PRNG streams (one processor per demand, §2) in increasing
// item order, exactly the order in which a distributed processor draws for
// its own items. This makes the centralized simulation and the simnet
// protocol produce bit-identical independent sets for identical seeds.
package mis

import "math"

// Drawer supplies random priorities for a vertex of a demand group; the
// engine passes per-demand PRNG streams so distributed and local runs
// agree.
type Drawer func(demand int) float64

// Cover is a conflict graph on the vertices 0..len(Demand)-1, given as a
// clique cover in the shape of §2: vertex v lies in the demand group
// Demand[v] and in the edge groups Edges[v], and two distinct vertices
// conflict iff they share a group. Demand groups are numbered in
// [0, NumDemands) and edge groups in [0, NumEdges), as two separate spaces.
type Cover struct {
	Demand     []int32
	Edges      [][]int32
	NumDemands int
	NumEdges   int
}

// Scratch holds Luby's buffers: per-vertex state, and per group the
// current minimum and a stamp of the pass that last wrote it. Stamps make
// the per-group arrays reusable without clearing them, so one election per
// step costs O(Σ group memberships), not O(groups). A zero Scratch is
// ready to use. The slice Luby returns aliases the scratch and is valid
// until its next use; a Scratch must not be used by two calls at once.
type Scratch struct {
	inMIS, live  []bool
	priority     []float64
	dBest, eBest []int32  // per group: the minimum live vertex of this pass
	dMark, eMark []uint32 // per group: the stamp of the pass that wrote it
	tick         uint32
}

// prepare sizes the scratch for n vertices over the cover's groups and
// resets the per-vertex membership. The per-group arrays grow with
// headroom, as append grows a slice, so a group space that grows a little
// at a time (a Session's, between rounds) reallocates them rarely.
func (s *Scratch) prepare(c *Cover) []bool {
	n := len(c.Demand)
	s.inMIS = grow(s.inMIS, n)
	clear(s.inMIS)
	if len(s.dMark) < c.NumDemands {
		s.dBest = groupArray(s.dBest, c.NumDemands)
		s.dMark = groupArray(s.dMark, c.NumDemands)
	}
	if len(s.eMark) < c.NumEdges {
		s.eBest = groupArray(s.eBest, c.NumEdges)
		s.eMark = groupArray(s.eMark, c.NumEdges)
	}
	return s.inMIS
}

// groupArray returns a per-group array of length n, buf's storage
// extended as append extends it: the entries past buf's length are zero,
// a mark no stamp equals, and the entries before it keep their marks.
func groupArray[T int32 | uint32](buf []T, n int) []T {
	return append(buf, make([]T, n-len(buf))...)
}

// stamp returns a stamp no group carries yet. On wrap-around every mark is
// cleared, so a stale mark can never equal a fresh stamp.
func (s *Scratch) stamp() uint32 {
	if s.tick == math.MaxUint32 {
		clear(s.dMark)
		clear(s.eMark)
		s.tick = 0
	}
	s.tick++
	return s.tick
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Luby computes a maximal independent set of the cover's conflict graph.
// Vertices draw in increasing index order, each from its demand group's
// stream (draw(Demand[v])), per the contract above. It returns the
// membership vector and the number of Luby iterations (each iteration
// costs two communication rounds in the distributed implementation: one
// to exchange draws, one to announce winners). s may be nil. Priorities
// must not be NaN.
//
// A live vertex wins an iteration iff its (priority, index) is the minimum
// over the live members of every group it belongs to. That is the same
// predicate as beating every live neighbor, because the neighbors of v are
// exactly the other members of v's groups. A winner eliminates the live
// members of its groups, which are exactly its live neighbors. So the
// result and the iteration count are those of Luby over the adjacency
// lists, for the same draws.
//
//schedvet:hot
func Luby(c *Cover, draw Drawer, s *Scratch) (inMIS []bool, iterations int) {
	if s == nil {
		s = new(Scratch)
	}
	inMIS = s.prepare(c)
	n := len(c.Demand)
	live := grow(s.live, n)
	s.live = live
	for v := range live {
		live[v] = true
	}
	priority := grow(s.priority, n)
	s.priority = priority
	dBest, eBest, dMark, eMark := s.dBest, s.eBest, s.dMark, s.eMark
	liveCount := n
	for liveCount > 0 {
		iterations++
		for v := 0; v < n; v++ {
			if live[v] {
				priority[v] = draw(int(c.Demand[v]))
			}
		}
		// Each group's minimum live vertex. The scan is ascending and
		// replaces only on a strictly smaller priority, so a tie keeps the
		// smaller index.
		seen := s.stamp()
		for v := 0; v < n; v++ {
			if !live[v] {
				continue
			}
			v32 := int32(v)
			if g := c.Demand[v]; dMark[g] != seen {
				dMark[g], dBest[g] = seen, v32
			} else if priority[v] < priority[dBest[g]] {
				dBest[g] = v32
			}
			for _, g := range c.Edges[v] {
				if eMark[g] != seen {
					eMark[g], eBest[g] = seen, v32
				} else if priority[v] < priority[eBest[g]] {
					eBest[g] = v32
				}
			}
		}
		// Winners are the minimum of all their groups; their groups are
		// marked as won. Marking does not disturb later verdicts, which
		// read only the minima.
		won := s.stamp()
		for v := 0; v < n; v++ {
			if !live[v] || !minOfGroups(c, v, dBest, eBest) {
				continue
			}
			inMIS[v] = true
			dMark[c.Demand[v]] = won
			for _, g := range c.Edges[v] {
				eMark[g] = won
			}
		}
		// A live vertex in a won group is a winner or a neighbor of one.
		for v := 0; v < n; v++ {
			if live[v] && inGroupMarked(c, v, won, dMark, eMark) {
				live[v] = false
				liveCount--
			}
		}
	}
	return inMIS, iterations
}

// minOfGroups reports whether v is the recorded minimum of all its groups.
//
//schedvet:hot
func minOfGroups(c *Cover, v int, dBest, eBest []int32) bool {
	v32 := int32(v)
	if dBest[c.Demand[v]] != v32 {
		return false
	}
	for _, g := range c.Edges[v] {
		if eBest[g] != v32 {
			return false
		}
	}
	return true
}

// inGroupMarked reports whether any group of v carries the stamp.
//
//schedvet:hot
func inGroupMarked(c *Cover, v int, stamp uint32, dMark, eMark []uint32) bool {
	if dMark[c.Demand[v]] == stamp {
		return true
	}
	for _, g := range c.Edges[v] {
		if eMark[g] == stamp {
			return true
		}
	}
	return false
}
