// Package regression replays the last-ulp drift bug the §6 per-resource
// combine once had: iterating the resource set in map order instead of
// through slices.Sorted(maps.Keys(...)) accumulates the profit sum in a
// run-dependent order, drifting in the last ulp between identical
// solves. maprange must catch this shape (acceptance criterion for the
// schedvet suite).
package regression

// combineByResource is the §6 per-resource combine as it was once
// written over maps, with the slices.Sorted(maps.Keys(resources))
// iteration replaced by a raw map range — the exact regression the
// analyzer exists to stop.
func combineByResource(wideByRes, narrowByRes map[int][]int, profitW, profitN map[int]float64) ([]int, float64) {
	resources := make(map[int]bool)
	//schedvet:ok maprange set-insert commutes; order never observed
	for r := range wideByRes {
		resources[r] = true
	}
	//schedvet:ok maprange set-insert commutes; order never observed
	for r := range narrowByRes {
		resources[r] = true
	}
	var selected []int
	profit := 0.0
	for r := range resources { // want `maprange: range over map\[int\]bool iterates in randomized order`
		if profitW[r] >= profitN[r] {
			selected = append(selected, wideByRes[r]...)
			profit += profitW[r]
		} else {
			selected = append(selected, narrowByRes[r]...)
			profit += profitN[r]
		}
	}
	return selected, profit
}
