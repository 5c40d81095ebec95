package engine

import (
	"math"
	"slices"

	"treesched/internal/dual"
	"treesched/internal/model"
)

// Core is the processor-local protocol core: the raise/settle rules of the
// two-phase framework factored out of the run loop so that the in-process
// engine and the message-passing nodes of package dist execute the exact
// same floating-point operations. A Core holds a dual assignment scoped to
// whatever its owner can see — the engine owns a single global Core, while
// each dist node owns a Core tracking its own α-variables plus local copies
// of the β-variables on its items' paths — and exposes:
//
//   - Intern: the one-time translation of an Item into a dense ItemView
//     over the core's dual index;
//   - Unsatisfied: the stage-threshold test driving step participation;
//   - Raise: the mode-dispatched raise rule (§3.2 unit / §6.1 narrow),
//     updating α and β locally;
//   - ApplyRaise: the β-only replay of a raise announced by another
//     processor, using BetaGain so remote copies stay bit-identical to the
//     raiser's own update.
//
// Because both executions funnel every dual mutation through these entry
// points, they cannot drift: equality of the inputs (items, Config, seed)
// implies bitwise equality of every dual variable, every satisfaction test,
// and hence every selection.
//
// The hot-path methods address the dual state through dense int32 indices
// (see dual.Index): interning happens once per item at setup, and the
// per-step satisfaction scans run as tight loops over int slices with no
// map hashing.
type Core struct {
	Mode Mode
	Dual *dual.Assignment
}

// NewCore returns a core with an empty dual assignment over a fresh index.
func NewCore(mode Mode) *Core {
	return &Core{Mode: mode, Dual: dual.New()}
}

// NewCoreWithIndex returns a core whose assignment is addressed through a
// prepared (frozen) index — the engine's prepared-run path, where the index
// and views are built once per item set and shared across solves.
func NewCoreWithIndex(mode Mode, ix *dual.Index) *Core {
	return &Core{Mode: mode, Dual: dual.NewWithIndex(ix)}
}

// ItemView is one item's dual constraint in dense form: the demand slot and
// the β-index lists of its path and critical set, precomputed so the
// per-step ξ-satisfaction tests and raises are pure slice arithmetic.
type ItemView struct {
	Slot     int32 // demand slot in the core's dual index
	Profit   float64
	Height   float64
	Edges    []int32 // β indices of the full path
	Critical []int32 // β indices of π(d) ⊆ Edges
}

// Intern translates an item into its dense view, interning the demand and
// path edges into the core's dual index. Call once per item at setup; the
// index must not be mutated while a run is in flight.
func (c *Core) Intern(it *Item) ItemView {
	return internItem(c.Dual.Index(), it, make([]int32, len(it.Edges)+len(it.Critical)))
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
	return ItemView{Slot: slot, Profit: it.Profit, Height: it.Height, Edges: edges, Critical: critical}
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

// ApplyRaise replays a raise of δ announced by another processor whose
// item has the given (interned) critical set: β(e) += BetaGain for each
// critical edge. The raiser's α is private to its owner and is not tracked.
//
//schedvet:hot
func (c *Core) ApplyRaise(critical []int32, delta float64) {
	c.Dual.AddBeta(critical, BetaGain(c.Mode, len(critical), delta))
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
// (Lemma 3.1). Dense counterpart of dual.Lambda/Bound over ConstraintViews;
// items are validated to have positive profit, so no zero-profit guard is
// needed here beyond the λ ≤ 0 check.
func (c *Core) lambdaBound(views []ItemView) (lambda, bound float64) {
	lambda = c.lambdaOnly(views)
	if lambda <= 0 {
		return lambda, math.Inf(1)
	}
	return lambda, c.Dual.Value() / lambda
}

// lambdaOnly is the λ half of lambdaBound: min(1, min LHS/p) over views.
// Split out so the sharded engine can score each component against its own
// shard-local dual — the constraints of disjoint components read disjoint
// dual variables, and min is order-independent and performs no arithmetic,
// so the min over per-shard minima is bitwise the global λ. Warm replays
// then reuse the cached per-shard value without touching the views at all.
func (c *Core) lambdaOnly(views []ItemView) float64 {
	lambda := 1.0
	for i := range views {
		v := &views[i]
		if r := c.Dual.LHS(v.Slot, c.Coeff(v), v.Edges) / v.Profit; r < lambda {
			lambda = r
		}
	}
	return lambda
}

// SelectGreedy is the shared second phase: pop the phase-1 raise history
// (last step first, item ids ascending within a step) and greedily build the
// feasible solution — an item is added if its demand is unused and every
// path edge retains capacity (edge-disjointness under the unit rule, height
// sums ≤ 1 under the narrow rule). steps lists the raised item ids of each
// phase-1 step in execution order. Both the engine and the dist runtime
// reconstruct their selections through this one rule — the engine via the
// dense selectGreedyViews below, the dist coordinator via this key-addressed
// form — so identical raise histories yield identical selections and profit
// (the per-edge capacity sums accumulate in the same order either way).
func SelectGreedy(items []Item, mode Mode, steps [][]int) (selected []int, profit float64) {
	usedDemand := make(map[int]bool)
	usage := make(map[model.EdgeKey]float64)
	for s := len(steps) - 1; s >= 0; s-- {
		for _, id := range steps[s] {
			it := &items[id]
			if usedDemand[it.Demand] {
				continue
			}
			need := it.Height
			if mode == Unit {
				need = 1 // unit rule schedules edge-disjointly even for wide h<1
			}
			ok := true
			for _, e := range it.Edges {
				if usage[e]+need > 1+dual.Tolerance {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			usedDemand[it.Demand] = true
			for _, e := range it.Edges {
				usage[e] += need
			}
			selected = append(selected, id)
			profit += it.Profit
		}
	}
	slices.Sort(selected)
	return selected, profit
}

// selectGreedyViews is SelectGreedy over dense views: demand usage and edge
// capacity live in flat slices indexed by dual slots. Bit-identical to the
// key-addressed form (same pop order, same capacity sums in the same
// accumulation order, same tie handling).
//
//schedvet:hot
func selectGreedyViews(views []ItemView, mode Mode, steps [][]int, numSlots, numEdges int) (selected []int, profit float64) {
	usedDemand := make([]bool, numSlots)
	usage := make([]float64, numEdges)
	for s := len(steps) - 1; s >= 0; s-- {
	next:
		for _, id := range steps[s] {
			v := &views[id]
			if usedDemand[v.Slot] {
				continue
			}
			need := v.Height
			if mode == Unit {
				need = 1
			}
			for _, e := range v.Edges {
				if usage[e]+need > 1+dual.Tolerance {
					continue next
				}
			}
			usedDemand[v.Slot] = true
			for _, e := range v.Edges {
				usage[e] += need
			}
			selected = append(selected, id)
			profit += v.Profit
		}
	}
	slices.Sort(selected)
	return selected, profit
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
