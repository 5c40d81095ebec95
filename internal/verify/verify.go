// Package verify audits algorithm outputs against the paper's definitions:
// solution feasibility (§2), the interference property (§3.2), and dual
// λ-satisfaction. It is used by tests, the experiment harness and the CLIs;
// nothing on the solve path depends on it.
package verify

import (
	"fmt"

	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/model"
)

// Feasible checks that the selected item ids form a feasible solution:
// at most one instance per demand, and on every edge the total requirement
// does not exceed unit capacity. In unit mode every item counts as height 1
// (edge-disjointness); otherwise true heights are summed.
func Feasible(items []engine.Item, selected []int, mode engine.Mode) error {
	usedDemand := make(map[int]int)
	usage := make(map[model.EdgeKey]float64)
	for _, id := range selected {
		if id < 0 || id >= len(items) {
			return fmt.Errorf("verify: selected id %d out of range", id)
		}
		it := &items[id]
		if prev, ok := usedDemand[it.Demand]; ok {
			return fmt.Errorf("verify: demand %d selected twice (items %d and %d)", it.Demand, prev, id)
		}
		usedDemand[it.Demand] = id
		need := it.Height
		if mode == engine.Unit {
			need = 1
		}
		for _, e := range it.Edges {
			usage[e] += need
			if usage[e] > 1+dual.Tolerance {
				return fmt.Errorf("verify: edge %v over capacity (%.9f) after item %d", e, usage[e], id)
			}
		}
	}
	return nil
}

// FeasibleHeights is Feasible with true heights regardless of mode; used for
// the combined arbitrary-height solution.
func FeasibleHeights(items []engine.Item, selected []int) error {
	return Feasible(items, selected, engine.Narrow)
}

// Interference checks the interference property of §3.2 on a recorded
// phase-1 trace: for any two raised, overlapping instances d1 raised before
// d2, path(d2) must contain a critical edge of d1. (Same-demand conflicts
// share the α variable and need no critical edge.)
func Interference(items []engine.Item, trace *engine.Trace) error {
	if trace == nil {
		return fmt.Errorf("verify: no trace recorded")
	}
	type raised struct {
		item  int
		order int
	}
	var hist []raised
	for i, ev := range trace.Events {
		hist = append(hist, raised{item: ev.Item, order: i})
	}
	pathSet := pathSets(items)
	for a := 0; a < len(hist); a++ {
		for b := a + 1; b < len(hist); b++ {
			d1, d2 := &items[hist[a].item], &items[hist[b].item]
			if d1.ID == d2.ID {
				return fmt.Errorf("verify: item %d raised twice", d1.ID)
			}
			if d1.Demand == d2.Demand {
				continue // α(a_d) is shared; the property is automatic
			}
			if !sharesEdge(pathSet(d1.ID), d2.Edges) {
				continue // not overlapping
			}
			hit := false
			for _, e := range d1.Critical {
				if pathSet(d2.ID)[e] {
					hit = true
					break
				}
			}
			if !hit {
				return fmt.Errorf("verify: interference violated: item %d (raised first, π=%v) vs item %d (path=%v)",
					d1.ID, d1.Critical, d2.ID, d2.Edges)
			}
		}
	}
	return nil
}

// pathSets returns a lookup of each item's path as an edge set, built on
// first use.
func pathSets(items []engine.Item) func(id int) map[model.EdgeKey]bool {
	sets := make([]map[model.EdgeKey]bool, len(items))
	return func(id int) map[model.EdgeKey]bool {
		if sets[id] == nil {
			s := make(map[model.EdgeKey]bool, len(items[id].Edges))
			for _, e := range items[id].Edges {
				s[e] = true
			}
			sets[id] = s
		}
		return sets[id]
	}
}

func sharesEdge(set map[model.EdgeKey]bool, edges []model.EdgeKey) bool {
	for _, e := range edges {
		if set[e] {
			return true
		}
	}
	return false
}

// LambdaAtLeast checks that every item's dual constraint is λ-satisfied.
// It reads the assignment by demand id and edge key (AlphaMap, BetaMap),
// not through the engine's slots, and sums each LHS as the raise rules do:
// α + coeff·Σβ, the β over the path in order.
func LambdaAtLeast(items []engine.Item, a *dual.Assignment, mode engine.Mode, lambda float64) error {
	alpha, beta := a.AlphaMap(), a.BetaMap()
	for i := range items {
		it := &items[i]
		coeff := 1.0
		if mode == engine.Narrow {
			coeff = it.Height
		}
		betas := 0.0
		for _, e := range it.Edges {
			betas += beta[e]
		}
		lhs := alpha[it.Demand] + coeff*betas
		if lhs < lambda*it.Profit-dual.Tolerance*it.Profit {
			return fmt.Errorf("verify: item %d only %.6f-satisfied, want ≥ %.6f", i, lhs/it.Profit, lambda)
		}
	}
	return nil
}

// StackCoverage checks the key accounting fact in the proof of Lemma 3.1:
// every raised item either belongs to the solution or conflicts with a
// selected item raised strictly later (a selected successor). Conflict is
// checked by the §2 definition — a shared demand or a shared edge — not by
// any engine structure. A failure indicates a broken second phase.
func StackCoverage(items []engine.Item, trace *engine.Trace, selected []int) error {
	if trace == nil {
		return fmt.Errorf("verify: no trace recorded")
	}
	pathSet := pathSets(items)
	order := make(map[int]int, len(trace.Events))
	for i, ev := range trace.Events {
		order[ev.Item] = i
	}
	inSol := make(map[int]bool, len(selected))
	for _, id := range selected {
		inSol[id] = true
	}
	for _, ev := range trace.Events {
		if inSol[ev.Item] {
			continue
		}
		d1 := &items[ev.Item]
		covered := false
		for _, w := range selected {
			if w < 0 || w >= len(items) || order[w] <= order[ev.Item] {
				continue
			}
			if d2 := &items[w]; d2.Demand == d1.Demand || sharesEdge(pathSet(ev.Item), d2.Edges) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("verify: raised item %d neither selected nor blocked by a selected successor", ev.Item)
		}
	}
	return nil
}
