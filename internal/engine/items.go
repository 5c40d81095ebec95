package engine

import (
	"fmt"

	"treesched/internal/decomp"
	"treesched/internal/dual"
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
// through it, the root Solver builds the items of a §6 solve through it,
// and the incremental Session builds its arrivals through it, so an
// arriving demand yields exactly the item a from-scratch build would.
// PrepareDemands is the same loop with the interning fused in.
//
// A sizing pass computes each item's LCA, once, and from it the path's
// length; then one Layered.Walk per item writes its path in place and π(d)
// as positions on it, from which the item's π(d) keys are copied. The
// items of one call share one path slab and one π slab, sized by the bound
// 2(θ+1) per item, so any surviving item keeps its call's slabs alive, and
// each item's π(d) leaves at most 2(θ+1) − |π(d)| keys of the slab unused;
// every item's slices are capped at their own length, so appending to one
// never reaches its neighbour. The items and slabs are a's (Arena), valid
// until it is released, or fresh when a is nil.
func DemandItems(demands []model.Demand, layered []*decomp.Layered, a *Arena) []Item {
	if a == nil {
		a = new(Arena) // fresh storage, which only the items keep
	}
	return demandItems(demands, layered, a, nil, nil)
}

// demandItems builds the items of DemandItems in a's storage and, when lay
// is non-nil, prepares them in the same loop, as layout.build over the
// items would: right after an item's walk it interns the item's demand and
// path, in path order, copies π(d)'s indices off the path's by position,
// writes the item's view into lay and counts the item into st. The view
// index lists share one slab, each item's path list followed by its π(d)
// list. Since π(d) ⊆ path(d), interning the path interns every key of the
// item, so the numbering is layout.build's first-seen order. lay's index
// is sized as layout.build sizes it.
//
//schedvet:hot
func demandItems(demands []model.Demand, layered []*decomp.Layered, a *Arena, lay *layout, st *planStats) []Item {
	n, critBound, critMax := 0, 0, 0
	for i := range demands {
		for _, q := range demands[i].Access {
			c := layered[q].MaxCriticalSize()
			n, critBound, critMax = n+1, critBound+c, max(critMax, c)
		}
	}
	// The sizing pass: each item's LCA, kept for its walk, and its path
	// length, and the demand count layout.build sizes by.
	walk := resize(&a.walk, n+critMax)
	lcas, pos := walk[:n], walk[n:]
	pathTotal, nd, prev := 0, 0, 0
	id := 0
	for i := range demands {
		d := &demands[i]
		if len(d.Access) > 0 {
			if nd == 0 || d.ID != prev {
				nd++ // a run of items of one demand, as layout.build counts
			}
			prev = d.ID
		}
		for _, q := range d.Access {
			t := layered[q].H.T
			lca := t.LCA(d.U, d.V)
			lcas[id] = int32(lca)
			pathTotal += t.Depth(d.U) + t.Depth(d.V) - 2*t.Depth(lca)
			id++
		}
	}
	items := resize(&a.items, n)
	edges := resize(&a.path, pathTotal)
	crit := resize(&a.crit, critBound)
	var ix *dual.Index
	var idx []int32
	if lay != nil {
		ix = lay.ix
		ix.Reset(nd, pathTotal)
		lay.views = resize(&a.views, n)
		idx = resize(&a.idx, pathTotal+critBound)
		st.reset()
	}
	id, eo, co := 0, 0, 0
	for i := range demands {
		d := &demands[i]
		var slot int32
		if ix != nil && len(d.Access) > 0 {
			slot = ix.Demand(d.ID)
		}
		for _, q := range d.Access {
			group, ne, nc := layered[q].Walk(d.U, d.V, int(lcas[id]), q, edges[eo:], pos)
			path, critical := edges[eo:eo+ne:eo+ne], crit[co:co+nc:co+nc]
			for j, p := range pos[:nc] {
				critical[j] = path[p]
			}
			items[id] = Item{
				ID:       id,
				Demand:   d.ID,
				Resource: q,
				Group:    group,
				Profit:   d.Profit,
				Height:   d.Height,
				Edges:    path,
				Critical: critical,
			}
			if ix != nil {
				m := ne + nc
				ve, vc := idx[:ne:ne], idx[ne:m:m]
				idx = idx[m:]
				ix.EdgePath(path, ve)
				for j, p := range pos[:nc] {
					vc[j] = ve[p]
				}
				lay.views[id] = ItemView{Slot: slot, Group: int32(group), Profit: d.Profit, Height: d.Height, Edges: ve, Critical: vc}
				st.add(&items[id], id)
			}
			id, eo, co = id+1, eo+ne, co+nc
		}
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
