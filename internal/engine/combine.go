package engine

import (
	"maps"
	"slices"
)

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
// with the class's Mode set and ξ re-derived from the class. solve returns
// the selected class-local ids. Then, for each resource in ascending order,
// it keeps whichever class's selection earns more profit there. Every
// demand is entirely wide or entirely narrow, so the combination selects
// at most one instance per demand, and per-resource selection preserves
// the bandwidth constraints.
//
// The in-process engine (SolveArbitrary) and the simulator executions
// both run §6 through here, so the two cannot split or combine differently.
func SolveHeightClasses(items []Item, cfg Config, solve func(class []Item, cfg Config) ([]int, error)) (selected []int, profit float64, err error) {
	// Index 0 is the wide class, 1 the narrow one.
	var classes [2][]Item
	var ids [2][]int // class-local id -> original id
	for _, it := range items {
		k := 1
		if it.Height > 0.5 {
			k = 0
		}
		ids[k] = append(ids[k], it.ID)
		it.ID = len(classes[k])
		classes[k] = append(classes[k], it)
	}
	var byRes [2]map[int][]int
	var profitByRes [2]map[int]float64
	for k, mode := range [2]Mode{Unit, Narrow} {
		byRes[k], profitByRes[k] = make(map[int][]int), make(map[int]float64)
		class := classes[k]
		if len(class) == 0 {
			continue
		}
		ccfg := cfg
		ccfg.Mode = mode
		ccfg.Xi = 0 // re-derive from the class's items
		sel, err := solve(class, ccfg)
		if err != nil {
			return nil, 0, err
		}
		for _, id := range sel {
			r := class[id].Resource
			byRes[k][r] = append(byRes[k][r], ids[k][id])
			profitByRes[k][r] += class[id].Profit
		}
	}
	selected, profit = combinePerResource(byRes[0], byRes[1], profitByRes[0], profitByRes[1])
	return selected, profit, nil
}

// SolveArbitrary runs the §6 algorithm in process: SolveHeightClasses over
// the serial engine. Each class is prepared with PrepareRecorded, so with
// rec (nil for none) attached in a PhasePrepare span of its own, and solved
// with Solve(cfg, 1); the class bounds sum to the result's Bound.
func SolveArbitrary(items []Item, cfg Config, rec Recorder) (*ArbitraryResult, error) {
	out := &ArbitraryResult{}
	selected, profit, err := SolveHeightClasses(items, cfg, func(class []Item, ccfg Config) ([]int, error) {
		res, err := PrepareRecorded(class, rec).Solve(ccfg, 1)
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

// combinePerResource applies the §6 rule: on each resource keep whichever
// sub-solution earns more profit there. Resources are visited in ascending
// id order so the profit sum accumulates deterministically — iterating the
// resource set in map order made repeated solves differ in the last ulp.
func combinePerResource(wideByRes, narrowByRes map[int][]int, profitW, profitN map[int]float64) ([]int, float64) {
	resources := make(map[int]bool)
	//schedvet:ok maprange set-insert commutes; the union is iterated sorted below
	for r := range wideByRes {
		resources[r] = true
	}
	//schedvet:ok maprange set-insert commutes; the union is iterated sorted below
	for r := range narrowByRes {
		resources[r] = true
	}
	var selected []int
	profit := 0.0
	for _, r := range slices.Sorted(maps.Keys(resources)) {
		if profitW[r] >= profitN[r] {
			selected = append(selected, wideByRes[r]...)
			profit += profitW[r]
		} else {
			selected = append(selected, narrowByRes[r]...)
			profit += profitN[r]
		}
	}
	slices.Sort(selected)
	return selected, profit
}
