package engine

import "treesched/internal/dual"

// This file is the read-only surface package dist shares with the engine.
// A million-demand dist run cannot afford a private copy of every node's
// critical sets: instead the nodes borrow the interned dense layout the
// engine already builds once per item set (views, group member lists, dual
// extents), and the dist coordinator reconstructs the global selection,
// dual, λ and trace by replaying the collected raise history through the
// very same prepared layout. Everything exported here is immutable during
// runs, so any number of nodes — goroutines or batched worker lanes — may
// read it concurrently without synchronization.

// Views returns the prepared per-item dense views, aligned with Items().
// Strictly read-only: the dist nodes alias these slices directly instead of
// copying path/critical sets per processor.
func (p *Prepared) Views() []ItemView { return p.lay.views }

// Members returns the prepared conflict structure: demandMembers[s] and
// edgeMembers[e] list, ascending, the items whose demand interned to slot s
// and whose path contains edge index e. Two items conflict iff they share
// a list. Strictly read-only.
func (p *Prepared) Members() (demandMembers, edgeMembers [][]int32) {
	return p.demandMembers, p.edgeMembers
}

// DemandSlots returns the number of interned demand slots (α extent) of the
// prepared layout.
func (p *Prepared) DemandSlots() int { return p.lay.ix.NumDemands() }

// EdgeSlots returns the number of interned edge indices (β extent) of the
// prepared layout.
func (p *Prepared) EdgeSlots() int { return p.lay.ix.NumEdges() }

// SelectGreedy runs the shared second phase over the prepared dense layout:
// steps is the phase-1 raise history (item ids per step, execution order,
// ascending within a step). Bit-identical to the serial engine's selection
// for the same history.
func (p *Prepared) SelectGreedy(mode Mode, steps [][]int) (selected []int, profit float64) {
	return selectGreedyViews(p.lay.views, mode, steps, p.lay.ix.NumDemands(), p.lay.ix.NumEdges())
}

// ReplayDual replays a phase-1 raise history through a fresh core over the
// prepared layout and scores it: the returned assignment, λ and weak-duality
// bound are bitwise what a run that performed exactly these raises in this
// order would report. The dist runtime uses this to recover the global dual
// from per-node raise logs without any node ever holding global state.
func (p *Prepared) ReplayDual(mode Mode, steps [][]int) (d *dual.Assignment, lambda, bound float64) {
	core := p.lay.newCore(mode)
	for _, ids := range steps {
		for _, id := range ids {
			core.Raise(&p.lay.views[id])
		}
	}
	if len(p.items) == 0 {
		return core.Dual, 0, 0
	}
	lambda, bound = core.lambdaBound(p.lay.views)
	return core.Dual, lambda, bound
}
