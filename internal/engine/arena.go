package engine

import (
	"slices"
	"sync"

	"treesched/internal/dual"
	"treesched/internal/model"
)

// Arena is the storage of one cold solve: everything the solve prepares
// and then throws away, kept for the next solve instead. It holds the
// validated demand copy, the items with their path and π(d) slabs and the
// walk's per-item LCAs and π(d) positions, the Prepared with its layout,
// views, view index slab and dual index, and the α/β of the Prepared's one
// serial run. The per-run buffers no Result keeps — the raise stack and
// its picks, the greedy marks, the plan — are the pooled solveScratch's,
// which the sharded path uses too.
//
// Arenas are pooled package-wide (TakeArena, Release). Each in-flight
// solve holds its own. Every buffer is resized when taken, and every entry
// a solve reads it first clears or writes, so an arena's last solve cannot
// reach its next. Everything taken from an arena — the items DemandItems
// builds, a Prepared built by PrepareDemands or PrepareRecorded and its
// serial Result's Dual — is valid until Release; a caller whose state
// outlives the call passes a nil arena and gets fresh storage.
type Arena struct {
	// Demands and Key are a caller's own per-solve buffers, which nothing
	// in this package reads: the root Solver's validated copy of an
	// instance's demands, and the key it looks each network's cached
	// decomposition up by.
	Demands []model.Demand
	Key     []byte

	items []Item
	path  []model.EdgeKey // the items' paths
	crit  []model.EdgeKey // the items' π(d), each in room for its bound
	walk  []int32         // each item's LCA, from the sizing pass, then one item's π(d) as positions on its path
	views []ItemView
	idx   []int32 // the views' index lists
	ix    dual.Index
	dual  dual.Assignment
	lay   layout
	prep  Prepared
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// TakeArena returns an arena from the pool.
func TakeArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns the arena to the pool. Nothing taken from it may be used
// after.
func (a *Arena) Release() { arenaPool.Put(a) }

// resize returns *buf at length n, its storage grown, as append grows it,
// when short. The entries are stale: the caller clears or overwrites them.
func resize[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
