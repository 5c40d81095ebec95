package engine

import (
	"fmt"

	"treesched/internal/decomp"
	"treesched/internal/graph"
	"treesched/internal/model"
)

// DecompKind selects which tree decomposition drives the layered
// decomposition when building items; Ideal is the paper's choice (Lemma
// 4.3), the others exist for the A1 ablation.
type DecompKind int

const (
	IdealDecomp DecompKind = iota
	BalancingDecomp
	RootFixingDecomp
)

func (k DecompKind) String() string {
	switch k {
	case IdealDecomp:
		return "ideal"
	case BalancingDecomp:
		return "balancing"
	case RootFixingDecomp:
		return "rootfix"
	default:
		return fmt.Sprintf("DecompKind(%d)", int(k))
	}
}

// BuildTreeItems expands a tree-network instance into framework items: one
// per (demand, accessible tree), with groups and critical sets from the
// per-tree layered decompositions (§5). Group indices of different trees are
// aligned from the deepest level, exactly as the pseudocode's
// G_k = ∪_q G_k^(q).
func BuildTreeItems(in *model.Instance, kind DecompKind) ([]Item, error) {
	layered := make([]*decomp.Layered, len(in.Trees))
	for q, t := range in.Trees {
		l, err := LayeredForTree(t, kind)
		if err != nil {
			return nil, err
		}
		layered[q] = l
	}
	return BuildTreeItemsLayered(in, layered)
}

// LayeredForTree builds the layered decomposition of one tree under the
// given decomposition kind. The result depends only on the tree structure,
// so callers (e.g. the root-package Solver) may cache it across solves on
// the same network.
func LayeredForTree(t *graph.Tree, kind DecompKind) (*decomp.Layered, error) {
	var h *decomp.TreeDecomposition
	switch kind {
	case IdealDecomp:
		h = decomp.Ideal(t)
	case BalancingDecomp:
		h = decomp.Balancing(t)
	case RootFixingDecomp:
		h = decomp.RootFixing(t, 0)
	default:
		return nil, fmt.Errorf("engine: unknown decomposition kind %d", int(kind))
	}
	return decomp.NewLayered(h), nil
}

// BuildTreeItemsLayered is BuildTreeItems over prebuilt per-tree layered
// decompositions (layered[q] belongs to in.Trees[q]); it skips the
// decomposition work, which dominates item building on large trees.
func BuildTreeItemsLayered(in *model.Instance, layered []*decomp.Layered) ([]Item, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(layered) != len(in.Trees) {
		return nil, fmt.Errorf("engine: %d layered decompositions for %d trees", len(layered), len(in.Trees))
	}
	return DemandItems(in.Demands, layered, nil), nil
}

// DemandItems builds the items of already-validated demands under the
// per-tree layered decompositions (layered[q] applies to network q): one
// item per (demand, accessible network), by demand and then in Access
// order, with ids counting up from 0 — the order of Instance.Expand. It is
// the one tree-item builder: BuildTreeItemsLayered builds whole instances
// through it, the root package's Solver.Solve and Solver.Session build
// their already-validated instances through it, and the incremental
// Session builds its arrivals through it, so an arriving demand yields
// exactly the item a from-scratch build would.
//
// A counting pass sizes the slabs — path lengths from depths and the LCA,
// π(d) by the bound 2(θ+1) — and then one Layered.Walk per item writes its
// path and π(d) in place. The items of one call share one path slab and
// one packed π slab (so any surviving item keeps its call's slabs alive);
// every item's slices are capped at their own length, so appending to one
// never reaches its neighbour. The items and slabs are a's (Arena), valid
// until it is released, or fresh when a is nil.
//
//schedvet:hot
func DemandItems(demands []model.Demand, layered []*decomp.Layered, a *Arena) []Item {
	if a == nil {
		a = new(Arena) // fresh storage, which only the items keep
	}
	n, pathTotal, critBound := 0, 0, 0
	for i := range demands {
		d := &demands[i]
		for _, q := range d.Access {
			pathTotal += layered[q].H.T.Dist(d.U, d.V)
			critBound += layered[q].MaxCriticalSize()
			n++
		}
	}
	items := resize(&a.items, n)
	edges := resize(&a.path, pathTotal)
	crit := resize(&a.walk, critBound)
	id, eo, co := 0, 0, 0
	for i := range demands {
		d := &demands[i]
		for _, q := range d.Access {
			group, ne, nc := layered[q].Walk(d.U, d.V, q, edges[eo:], crit[co:])
			items[id] = Item{
				ID:       id,
				Demand:   d.ID,
				Resource: q,
				Group:    group,
				Profit:   d.Profit,
				Height:   d.Height,
				Edges:    edges[eo : eo+ne : eo+ne],
				Critical: crit[co : co+nc : co+nc],
			}
			id, eo, co = id+1, eo+ne, co+nc
		}
	}
	// π(d)'s size is known only after its walk; move the packed sets into
	// a slab of just their length, so surviving items keep no slack alive.
	exact := resize(&a.crit, co)
	copy(exact, crit)
	co = 0
	for i := range items {
		nc := len(items[i].Critical)
		items[i].Critical = exact[co : co+nc : co+nc]
		co += nc
	}
	return items
}

// BuildLineItems expands a line-network instance (with windows) into
// framework items using the §7 improved layered decomposition: groups by
// length category, π(d) = {s, mid, e} so ∆ ≤ 3.
func BuildLineItems(in *model.LineInstance) ([]Item, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	dis := in.Expand()
	if len(dis) == 0 {
		return nil, nil
	}
	lmin, _ := model.LengthRange(dis)
	items := make([]Item, 0, len(dis))
	for i := range dis {
		di := &dis[i]
		group, slots := decomp.LineAssign(di, lmin)
		critical := make([]model.EdgeKey, len(slots))
		for j, s := range slots {
			critical[j] = model.MakeEdgeKey(di.Resource, s)
		}
		items = append(items, Item{
			ID:       di.ID,
			Demand:   di.Demand,
			Resource: di.Resource,
			Group:    group,
			Profit:   di.Profit,
			Height:   di.Height,
			Edges:    di.Path(),
			Critical: critical,
		})
	}
	return items, nil
}
