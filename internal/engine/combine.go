package engine

import (
	"maps"
	"slices"
)

// ArbitraryResult is the outcome of the §6 arbitrary-height algorithm: the
// wide and narrow sub-runs plus the per-resource combination.
type ArbitraryResult struct {
	Selected []int   // original item ids, ascending
	Profit   float64 // profit of the combined solution
	Bound    float64 // Opt ≤ Bound (sum of the sub-run bounds)

	Wide   *Result // unit-rule run over wide items (nil if none)
	Narrow *Result // narrow-rule run over narrow items (nil if none)

	CommRounds int
}

// RunArbitrary implements the overall §6 algorithm (Theorem 6.3 for trees,
// Theorem 7.2 for lines): run the unit-height algorithm on the wide
// instances and the narrow algorithm on the narrow instances, then, for
// each resource, keep whichever sub-solution earns more profit there. Since
// every demand is entirely wide or entirely narrow, the combination selects
// at most one instance per demand, and per-resource selection preserves the
// bandwidth constraints.
func RunArbitrary(items []Item, cfg Config) (*ArbitraryResult, error) {
	return PrepareArbitrary(items).RunParallel(cfg, 1)
}

// ArbitraryPrepared is the Config-independent run state of the §6
// arbitrary-height algorithm: the wide/narrow split of an item set with
// each non-empty height class fully prepared (dense layout, member lists,
// shard decomposition). Like Prepared, it is safe for concurrent runs, so
// the root Solver caches it across solves — arbitrary-heights re-solves
// skip preparation for both classes.
type ArbitraryPrepared struct {
	items              []Item
	delta              int
	wide, narrow       *Prepared // nil when the class is empty
	wideIDs, narrowIDs []int
}

// PrepareArbitrary builds the arbitrary-height run state: the wide/narrow
// split, each class prepared.
func PrepareArbitrary(items []Item) *ArbitraryPrepared {
	wide, narrow, wideIDs, narrowIDs := SplitWideNarrow(items)
	ap := &ArbitraryPrepared{
		items:   items,
		delta:   MaxCritical(items),
		wideIDs: wideIDs, narrowIDs: narrowIDs,
	}
	if len(wide) > 0 {
		ap.wide = Prepare(wide)
	}
	if len(narrow) > 0 {
		ap.narrow = Prepare(narrow)
	}
	return ap
}

// Items returns the full (unsplit) item set. Callers must not mutate it.
func (ap *ArbitraryPrepared) Items() []Item { return ap.items }

// MaxCritical returns ∆ = max |π(d)| over the full item set.
func (ap *ArbitraryPrepared) MaxCritical() int { return ap.delta }

// RunParallel executes the §6 algorithm over the prepared state: the unit
// rule on the wide class, the narrow rule on the narrow class (each through
// Prepared.RunParallel, so serial unless the class has the warm-start cache
// on), then the per-resource combination. Bit-identical to RunArbitrary at
// every worker count.
func (ap *ArbitraryPrepared) RunParallel(cfg Config, workers int) (*ArbitraryResult, error) {
	out := &ArbitraryResult{}
	var wideItems, narrowItems []Item
	var wideSel, narrowSel []int
	if ap.wide != nil {
		wideItems = ap.wide.Items()
		wcfg := cfg
		wcfg.Mode = Unit
		wcfg.Xi = 0 // re-derive from the wide item set
		res, err := ap.wide.RunParallel(wcfg, workers)
		if err != nil {
			return nil, err
		}
		out.Wide = res
		out.Bound += res.Bound
		out.CommRounds += res.CommRounds
		wideSel = res.Selected
	}
	if ap.narrow != nil {
		narrowItems = ap.narrow.Items()
		ncfg := cfg
		ncfg.Mode = Narrow
		ncfg.Xi = 0
		res, err := ap.narrow.RunParallel(ncfg, workers)
		if err != nil {
			return nil, err
		}
		out.Narrow = res
		out.Bound += res.Bound
		out.CommRounds += res.CommRounds
		narrowSel = res.Selected
	}
	out.Selected, out.Profit = CombineSelections(wideItems, narrowItems, wideSel, narrowSel, ap.wideIDs, ap.narrowIDs)
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

// CombineSelections applies the §6 per-resource combination to selections
// produced by two sub-runs (wide items under the unit rule, narrow items
// under the narrow rule). wideSel/narrowSel index into wide/narrow; the
// wideIDs/narrowIDs maps translate back to original item ids, as returned by
// SplitWideNarrow. Used by the distributed facade, which runs the two
// sub-protocols itself.
func CombineSelections(wide, narrow []Item, wideSel, narrowSel []int, wideIDs, narrowIDs []int) (selected []int, profit float64) {
	wideByRes := make(map[int][]int)
	narrowByRes := make(map[int][]int)
	profitW := make(map[int]float64)
	profitN := make(map[int]float64)
	for _, id := range wideSel {
		r := wide[id].Resource
		wideByRes[r] = append(wideByRes[r], wideIDs[id])
		profitW[r] += wide[id].Profit
	}
	for _, id := range narrowSel {
		r := narrow[id].Resource
		narrowByRes[r] = append(narrowByRes[r], narrowIDs[id])
		profitN[r] += narrow[id].Profit
	}
	return combinePerResource(wideByRes, narrowByRes, profitW, profitN)
}
