// Package maprange is the golden suite for the maprange analyzer. It
// mirrors the shape of the bug the §6 per-resource combine once had:
// summing float64 in map iteration order drifts in the last ulp between
// runs.
package maprange

import (
	"maps"
	"slices"
)

// sumUnsorted is the true positive: the accumulation observes iteration
// order, so repeated runs disagree in the last ulp.
func sumUnsorted(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `maprange: range over map\[int\]float64 iterates in randomized order`
		s += v
	}
	return s
}

// sumSorted is the canonical fix: the ranged operand is a sorted key
// slice, so nothing is flagged.
func sumSorted(m map[int]float64) float64 {
	var s float64
	for _, k := range slices.Sorted(maps.Keys(m)) {
		s += m[k]
	}
	return s
}

// count is the waived case: a pure sizing pass never observes order.
func count(m map[int]float64) int {
	n := 0
	//schedvet:ok maprange pure count; the loop body never observes iteration order
	for range m {
		n++
	}
	return n
}

// idSet exercises named map types and key-only range.
type idSet map[string]bool

func anyKey(s idSet) string {
	for k := range s { // want `maprange: range over map\[string\]bool iterates in randomized order`
		return k
	}
	return ""
}
