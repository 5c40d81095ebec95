package seq

import (
	"cmp"
	"math"
	"slices"

	"treesched/internal/decomp"
	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/model"
)

// AppendixAResult reports the sequential tree-network algorithm's output.
type AppendixAResult struct {
	Selected []int // demand-instance ids (model.Instance.Expand order)
	Profit   float64
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
//
// It runs the two-phase framework on the engine's machinery: the items
// are built by one walk per demand instance (engine.DemandItems) and
// prepared once (engine.Prepare), the satisfaction tests and raises go
// through the prepared views into a dense dual, the second phase is the
// engine's greedy (Prepared.SelectGreedy) over the raise history with each
// raise its own step, and the bound is scored as the engine scores its
// runs.
func AppendixA(in *model.Instance) (*AppendixAResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	singleTree := len(in.Trees) == 1
	// One walk per demand instance lists path(d) and reads µ(d) and its
	// wings off it: the layered decomposition's walk over the root-fixing
	// decomposition, whose group orders the instances of a tree by the
	// capture depth, deepest first. Its π(d) is the wings of µ(d) alone:
	// µ(d) is the LCA of d's endpoints and its pivot set its parent, with
	// respect to which d bends at µ(d) itself.
	layered := make([]*decomp.Layered, len(in.Trees))
	for q, t := range in.Trees {
		layered[q] = decomp.NewLayered(decomp.RootFixing(t, 0))
	}
	items := engine.DemandItems(in.Demands, layered, nil)

	// Ordering σ(T_q): per tree, descending capture depth (ascending
	// group); ties by id.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ia, ib := &items[a], &items[b]
		if c := cmp.Compare(ia.Resource, ib.Resource); c != 0 {
			return c
		}
		if c := cmp.Compare(ia.Group, ib.Group); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i := range items {
		items[i].Group, items[i].Height = 1, 1 // unused by this algorithm
	}

	prep := engine.Prepare(items)
	views := prep.Views()
	d := dual.NewDense(prep.DemandSlots(), prep.EdgeSlots())
	res := &AppendixAResult{Items: items, Trace: &engine.Trace{}}
	res.Delta = engine.MaxCritical(items)
	var steps [][]int // the raise history, one raise per step
	for k, id := range order {
		v := &views[id]
		if d.Satisfied(v.Slot, 1, v.Edges, 1, v.Profit) {
			continue
		}
		var delta float64
		if singleTree {
			// Single-tree refinement: skip α, δ = s/|π|.
			delta = (v.Profit - d.BetaSum(v.Edges)) / float64(len(v.Critical))
			d.AddBeta(v.Critical, delta)
		} else {
			delta = d.RaiseUnit(v.Slot, v.Profit, v.Edges, v.Critical)
		}
		res.Trace.Events = append(res.Trace.Events, engine.RaiseEvent{Step: len(res.Trace.Events), Item: id, Delta: delta})
		steps = append(steps, order[k:k+1])
	}

	// Second phase: pop the raises, last first, and greedily add.
	res.Selected, res.Profit = prep.SelectGreedy(engine.Unit, steps)
	res.Bound = bound(d, views)
	return res, nil
}

// bound is Lemma 3.1's weak-duality bound on Opt, by the rule the engine
// scores its runs with: λ = min(1, min LHS/p) over every item's unit-LP
// constraint, in item order, and then Value/λ, which is 0 when there are
// no items.
func bound(d *dual.Assignment, views []engine.ItemView) float64 {
	lambda := 1.0
	for i := range views {
		v := &views[i]
		if r := d.LHS(v.Slot, 1, v.Edges) / v.Profit; r < lambda {
			lambda = r
		}
	}
	if lambda <= 0 {
		return math.Inf(1)
	}
	return d.Value() / lambda
}
