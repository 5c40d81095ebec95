package engine

import (
	"math"
	"slices"

	"treesched/internal/dual"
)

// Core is the processor-local protocol core: the raise/settle rules of the
// two-phase framework factored out of the run loop so that the in-process
// engine and the message-passing nodes of package dist execute the exact
// same floating-point operations. A Core holds a dual assignment scoped to
// whatever its owner can see — an engine run owns one over the prepared
// layout's index (a shard's run, its own entries of one), while each dist
// node owns one over its
// own α-variable and local copies of the β-variables on its items' paths —
// and exposes:
//
//   - Unsatisfied: the stage-threshold test driving step participation;
//   - Raise: the mode-dispatched raise rule (§3.2 unit / §6.1 narrow),
//     updating α and β locally.
//
// A β-only replay of a raise announced by another processor adds
// BetaGain to each critical β (dual.AddBeta), so remote copies stay
// bit-identical to the raiser's own update. Because both executions funnel
// every dual mutation through these entry points, they cannot drift:
// equality of the inputs (items, Config, seed) implies bitwise equality of
// every dual variable, every satisfaction test, and hence every selection.
//
// The methods address the dual state through the dense int32 indices of
// ItemViews (see dual.Index), translated once per item at preparation, so
// the per-step satisfaction scans run as tight loops over int slices with
// no map hashing.
type Core struct {
	Mode Mode
	Dual *dual.Assignment
}

// ItemView is one item's dual constraint in dense form: the demand slot and
// the β-index lists of its path and critical set, precomputed so the
// per-step ξ-satisfaction tests and raises are pure slice arithmetic, plus
// the item's group, the epoch it raises in, so a run buckets its items
// without reading them.
type ItemView struct {
	Slot     int32 // demand slot in the core's dual index
	Group    int32 // layered-decomposition group, as Item.Group
	Profit   float64
	Height   float64
	Edges    []int32 // β indices of the full path
	Critical []int32 // β indices of π(d) ⊆ Edges
}

// internItem is the one translation from Item to dense ItemView; the
// engine's layouts and the dist nodes' views are both built through it, so
// a change to the view shape or the interning rule cannot make the two
// executions diverge. The view's index lists are written into buf, which
// holds exactly len(it.Edges)+len(it.Critical) entries: path first, then
// π(d), each capped at its own length.
func internItem(ix *dual.Index, it *Item, buf []int32) ItemView {
	slot := ix.Demand(it.Demand)
	ne, n := len(it.Edges), len(it.Edges)+len(it.Critical)
	edges, critical := buf[:ne:ne], buf[ne:n:n]
	for j, k := range it.Edges {
		edges[j] = ix.Edge(k)
	}
	for j, k := range it.Critical {
		critical[j] = ix.Edge(k)
	}
	return ItemView{Slot: slot, Group: int32(it.Group), Profit: it.Profit, Height: it.Height, Edges: edges, Critical: critical}
}

// Coeff returns the view's LHS coefficient: 1 under the unit rule, the
// item's height under the narrow rule.
func (c *Core) Coeff(v *ItemView) float64 {
	if c.Mode == Narrow {
		return v.Height
	}
	return 1
}

// Unsatisfied reports whether the view's dual constraint is not yet
// thresh-satisfied: α(a_d) + coeff·Σ_{e∈path} β(e) < thresh·p(d).
//
//schedvet:hot
func (c *Core) Unsatisfied(v *ItemView, thresh float64) bool {
	return !c.Dual.Satisfied(v.Slot, c.Coeff(v), v.Edges, thresh, v.Profit)
}

// Raise performs the mode's raise rule on the view and returns δ. The
// owner's α and the β of the item's critical edges are updated in place;
// the constraint becomes tight.
//
//schedvet:hot
func (c *Core) Raise(v *ItemView) float64 {
	if c.Mode == Narrow {
		return c.Dual.RaiseNarrow(v.Slot, v.Profit, v.Height, v.Edges, v.Critical)
	}
	return c.Dual.RaiseUnit(v.Slot, v.Profit, v.Edges, v.Critical)
}

// BetaGain returns the per-critical-edge β increment of a raise of δ: δ
// under the unit rule, 2|π|δ under the narrow rule. It mirrors the
// increments of dual.RaiseUnit and dual.RaiseNarrow exactly so that remote
// β copies match the raiser's bitwise.
//
//schedvet:hot
func BetaGain(mode Mode, criticalLen int, delta float64) float64 {
	if mode == Narrow {
		return 2 * float64(criticalLen) * delta
	}
	return delta
}

// lambdaBound scores the assignment against every item's dual constraint in
// item order: λ = min(1, min LHS/p) and the weak-duality bound Value/λ
// (Lemma 3.1). Items are validated to have positive profit, so no
// zero-profit guard is needed here beyond the λ ≤ 0 check.
func (c *Core) lambdaBound(views []ItemView) (lambda, bound float64) {
	lambda = 1.0
	for i := range views {
		if r := c.ratio(&views[i]); r < lambda {
			lambda = r
		}
	}
	if lambda <= 0 {
		return lambda, math.Inf(1)
	}
	return lambda, c.Dual.Value() / lambda
}

// lambdaOver is the λ half of lambdaBound over the views at ids: min(1,
// min LHS/p). The sharded engine scores each component on its own — the
// constraints of disjoint components read disjoint dual variables, and
// min is order-independent and performs no arithmetic, so the min over
// per-shard minima is bitwise the global λ. Warm replays then reuse the
// cached per-shard value without touching the views at all.
func (c *Core) lambdaOver(views []ItemView, ids []int) float64 {
	lambda := 1.0
	for _, id := range ids {
		if r := c.ratio(&views[id]); r < lambda {
			lambda = r
		}
	}
	return lambda
}

// ratio is the view's LHS over its profit.
func (c *Core) ratio(v *ItemView) float64 {
	return c.Dual.LHS(v.Slot, c.Coeff(v), v.Edges) / v.Profit
}

// selectGreedyViews is the shared second phase over a raise history held
// as item lists: pop it (last step first, item ids ascending within a
// step) and greedily build the feasible solution — an item is added if its
// demand is unused and every path edge retains capacity (edge-disjointness
// under the unit rule, height sums ≤ 1 under the narrow rule). steps lists
// the raised item ids of each phase-1 step in execution order; the
// selection comes back ascending, and its profit is SumProfit's, which no
// order can change. The dist coordinator calls it through
// Prepared.SelectGreedy, and the serial engine and each shard of the
// sharded pipeline pop their own stacks through the same greedy.take
// (popGreedy), so identical raise histories yield identical selections.
//
//schedvet:hot
func selectGreedyViews(views []ItemView, mode Mode, steps [][]int, numSlots, numEdges int) (selected []int) {
	scr := scratchPool.Get().(*solveScratch)
	g := newGreedy(views, mode, numSlots, numEdges, scr, nil)
	for s := len(steps) - 1; s >= 0; s-- {
		selected = g.take(steps[s], selected)
	}
	//schedvet:ok hotpath boxing a pointer allocates nothing; one Put per pass, not per item
	scratchPool.Put(scr)
	slices.Sort(selected)
	return selected
}

// SumProfit returns the profit of the items at positions ids: the exact sum
// of their profits, rounded once (dual.Sum), so that no order or grouping
// of ids can change its bits. Every execution reports its Profit through
// it — the serial engine, the sharded merge, dist and SolveHeightClasses —
// and so do the sequential and exact solvers.
func SumProfit(items []Item, ids []int) float64 {
	var s dual.Sum
	for _, id := range ids {
		s.Add(items[id].Profit)
	}
	return s.Round()
}

// greedy is the dense second phase's state: demand usage and edge capacity
// in flat slices indexed by dual slots.
type greedy struct {
	views      []ItemView
	unit       bool
	usedDemand []bool
	usage      []float64
}

// newGreedy returns the greedy state over views, its marks taken from scr
// and clear: every mark, or, for a shard's pass (sh non-nil), the marks of
// its own demand slots and edge indices, the only ones its pass reads.
func newGreedy(views []ItemView, mode Mode, numSlots, numEdges int, scr *solveScratch, sh *preShard) greedy {
	g := greedy{
		views:      views,
		unit:       mode == Unit,
		usedDemand: resize(&scr.usedDemand, numSlots),
		usage:      resize(&scr.usage, numEdges),
	}
	if sh == nil {
		clear(g.usedDemand)
		clear(g.usage)
		return g
	}
	for _, s := range sh.slots {
		g.usedDemand[s] = false
	}
	for _, e := range sh.edges {
		g.usage[e] = 0
	}
	return g
}

// take pops one step: it tests ids in order and appends to sel each one the
// greedy rule selects, charging its demand and path edges.
//
//schedvet:hot
func (g *greedy) take(ids, sel []int) []int {
next:
	for _, id := range ids {
		v := &g.views[id]
		if g.usedDemand[v.Slot] {
			continue
		}
		need := v.Height
		if g.unit {
			need = 1
		}
		for _, e := range v.Edges {
			if g.usage[e]+need > 1+dual.Tolerance {
				continue next
			}
		}
		g.usedDemand[v.Slot] = true
		for _, e := range v.Edges {
			g.usage[e] += need
		}
		sel = append(sel, id)
	}
	return sel
}

// TotalSteps returns T, the number of steps in the fixed synchronous
// schedule: one step per (epoch, stage, step-slot) triple.
func (p *Plan) TotalSteps() int {
	return p.MaxGroup * p.Stages * p.StepCap
}

// StepAt maps a flat step index t ∈ [0, TotalSteps) to its schedule
// position: epoch (1-based), stage (1-based), iter (0-based step slot within
// the stage) and the stage's satisfaction threshold.
func (p *Plan) StepAt(t int) (epoch, stage, iter int, thresh float64) {
	perEpoch := p.Stages * p.StepCap
	epoch = t/perEpoch + 1
	rem := t % perEpoch
	stage = rem/p.StepCap + 1
	iter = rem % p.StepCap
	return epoch, stage, iter, p.Thresholds[stage-1]
}
