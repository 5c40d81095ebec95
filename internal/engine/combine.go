package engine

import "slices"

// ArbitraryResult is the outcome of the §6 arbitrary-height algorithm run
// in process.
type ArbitraryResult struct {
	Selected []int   // original item ids, ascending
	Profit   float64 // profit of the combined solution
	Bound    float64 // Opt ≤ Bound (sum of the height classes' bounds)
}

// SolveHeightClasses is the overall §6 algorithm (Theorem 6.3 for trees,
// Theorem 7.2 for lines) over solve, an executor of one height class. It
// splits the items into the wide class (h > 1/2, scheduled under the unit
// rule) and the narrow class (h ≤ 1/2, under the narrow rule), re-indexes
// each class densely, and hands each non-empty class to solve, wide first,
// with the class's Mode set, so its plan derives ξ from the class's own
// items. solve returns the selected class-local ids. Then, on each resource, it keeps whichever
// class's selection earns more profit there. Every demand is entirely wide
// or entirely narrow, so the combination selects at most one instance per
// demand, and per-resource selection preserves the bandwidth constraints.
// The combined profit is SumProfit's over the combined selection, so
// items[i].ID must be i; every Resource must be non-negative.
//
// The in-process engine (SolveArbitrary) and the simulator executions
// both run §6 through here, so the two cannot split or combine differently.
func SolveHeightClasses(items []Item, cfg Config, solve func(class []Item, cfg Config) ([]int, error)) (selected []int, profit float64, err error) {
	// Index 0 is the wide class, 1 the narrow one.
	var classes [2][]Item
	var ids [2][]int // class-local id -> original id
	resources := 0
	for _, it := range items {
		k := 1
		if it.Height > 0.5 {
			k = 0
		}
		ids[k] = append(ids[k], it.ID)
		it.ID = len(classes[k])
		classes[k] = append(classes[k], it)
		resources = max(resources, it.Resource+1)
	}
	// picks[k] is class k's selection as original ids, and profitByRes[k][r]
	// its profit on resource r, added in selection order.
	var picks [2][]int
	var profitByRes [2][]float64
	for k, mode := range [2]Mode{Unit, Narrow} {
		profitByRes[k] = make([]float64, resources)
		class := classes[k]
		if len(class) == 0 {
			continue
		}
		ccfg := cfg
		ccfg.Mode = mode
		sel, err := solve(class, ccfg)
		if err != nil {
			return nil, 0, err
		}
		for _, id := range sel {
			picks[k] = append(picks[k], ids[k][id])
			profitByRes[k][class[id].Resource] += class[id].Profit
		}
	}
	// On each resource the class that earns more there wins it, the wide
	// one on a tie; a selected item is kept when its class wins its
	// resource.
	for k, pick := range picks {
		for _, id := range pick {
			r := items[id].Resource
			if wideWins := profitByRes[0][r] >= profitByRes[1][r]; wideWins == (k == 0) {
				selected = append(selected, id)
			}
		}
	}
	slices.Sort(selected)
	return selected, SumProfit(items, selected), nil
}

// SolveArbitrary runs the §6 algorithm in process: SolveHeightClasses over
// the serial engine. Each class is prepared with PrepareRecorded, so with
// rec (nil for none) attached in a PhasePrepare span of its own, and solved
// with Solve(cfg, 1); the class bounds sum to the result's Bound.
func SolveArbitrary(items []Item, cfg Config, rec Recorder) (*ArbitraryResult, error) {
	out := &ArbitraryResult{}
	selected, profit, err := SolveHeightClasses(items, cfg, func(class []Item, ccfg Config) ([]int, error) {
		res, err := PrepareRecorded(class, rec, nil).Solve(ccfg, 1)
		if err != nil {
			return nil, err
		}
		out.Bound += res.Bound
		return res.Selected, nil
	})
	if err != nil {
		return nil, err
	}
	out.Selected, out.Profit = selected, profit
	return out, nil
}
