package seq

import (
	"fmt"
	"sort"

	"treesched/internal/decomp"
	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/model"
)

// AppendixAResult reports the sequential tree-network algorithm's output.
type AppendixAResult struct {
	Selected []int // demand-instance ids (model.Instance.Expand order)
	Profit   float64
	Dual     *dual.Assignment
	Bound    float64 // weak-duality upper bound on Opt
	Delta    int     // max |π| (≤ 2)
	Items    []engine.Item
	Trace    *engine.Trace
}

// AppendixA implements the sequential algorithm of Appendix A (Figure 8):
// process the trees one by one; within a tree, process demand instances in
// descending depth of their capture node under the root-fixing decomposition
// rooted at vertex 0, raising one unsatisfied instance at a time with
// π(d) = the wings of µ(d) on path(d). Its parameters are ∆ = 2, λ = 1, so
// Lemma 3.1 gives a 3-approximation (2-approximation for a single tree,
// where the α variables are not needed and δ = s/|π| raises only β).
func AppendixA(in *model.Instance) (*AppendixAResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	singleTree := len(in.Trees) == 1
	dis := in.Expand()
	items := make([]engine.Item, len(dis))
	captureDepth := make([]int, len(dis))

	hs := make([]*decomp.TreeDecomposition, len(in.Trees))
	for q, t := range in.Trees {
		hs[q] = decomp.RootFixing(t, 0)
	}
	for i := range dis {
		di := &dis[i]
		h := hs[di.Tree]
		t := in.Trees[di.Tree]
		pathV := t.PathVertices(di.U, di.V)
		pathE := t.PathEdges(di.U, di.V)
		z := h.Capture(pathV)
		captureDepth[i] = h.Depth[z]
		// π(d): the wing(s) of µ(d) on path(d).
		var critical []model.EdgeKey
		for idx, x := range pathV {
			if x != z {
				continue
			}
			if idx > 0 {
				critical = append(critical, model.MakeEdgeKey(di.Tree, pathE[idx-1]))
			}
			if idx < len(pathE) {
				critical = append(critical, model.MakeEdgeKey(di.Tree, pathE[idx]))
			}
		}
		if len(critical) == 0 {
			return nil, fmt.Errorf("seq: instance %d has empty wing set", i)
		}
		items[i] = engine.Item{
			ID:       i,
			Demand:   di.Demand,
			Resource: di.Tree,
			Group:    1, // unused by this algorithm
			Profit:   di.Profit,
			Height:   1,
			Edges:    di.Path,
			Critical: critical,
		}
	}

	// Ordering σ(T_q): per tree, descending capture depth; ties by id.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if items[ia].Resource != items[ib].Resource {
			return items[ia].Resource < items[ib].Resource
		}
		if captureDepth[ia] != captureDepth[ib] {
			return captureDepth[ia] > captureDepth[ib]
		}
		return ia < ib
	})

	res := &AppendixAResult{Dual: dual.New(), Items: items, Trace: &engine.Trace{}}
	res.Delta = engine.MaxCritical(items)
	var stack []int
	for _, id := range order {
		it := &items[id]
		if res.Dual.SatisfiedKeys(it.Demand, 1, it.Edges, 1, it.Profit) {
			continue
		}
		var delta float64
		if singleTree {
			// Single-tree refinement: skip α, δ = s/|π|.
			s := it.Profit - res.Dual.BetaSumKeys(it.Edges)
			delta = s / float64(len(it.Critical))
			for _, e := range it.Critical {
				res.Dual.AddBetaOf(e, delta)
			}
		} else {
			delta = res.Dual.RaiseUnitKeys(it.Demand, it.Profit, it.Edges, it.Critical)
		}
		res.Trace.Events = append(res.Trace.Events, engine.RaiseEvent{Step: len(res.Trace.Events), Item: id, Delta: delta})
		stack = append(stack, id)
	}

	// Second phase: pop and greedily add.
	usedDemand := make(map[int]bool)
	usedEdge := make(map[model.EdgeKey]bool)
	for s := len(stack) - 1; s >= 0; s-- {
		id := stack[s]
		it := &items[id]
		if usedDemand[it.Demand] {
			continue
		}
		ok := true
		for _, e := range it.Edges {
			if usedEdge[e] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		usedDemand[it.Demand] = true
		for _, e := range it.Edges {
			usedEdge[e] = true
		}
		res.Selected = append(res.Selected, id)
		res.Profit += it.Profit
	}
	sort.Ints(res.Selected)

	cons := make([]dual.ConstraintView, len(items))
	for i := range items {
		cons[i] = dual.ConstraintView{Demand: items[i].Demand, Coeff: 1, Profit: items[i].Profit, Path: items[i].Edges}
	}
	res.Bound = res.Dual.Bound(cons)
	return res, nil
}
