package verify_test

import (
	"strings"
	"testing"

	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/verify"
)

func mkItem(id, demand int, edges []int, critical []int, h float64) engine.Item {
	toKeys := func(es []int) []model.EdgeKey {
		out := make([]model.EdgeKey, len(es))
		for i, e := range es {
			out[i] = model.MakeEdgeKey(0, e)
		}
		return out
	}
	return engine.Item{
		ID: id, Demand: demand, Resource: 0, Group: 1,
		Profit: 1, Height: h, Edges: toKeys(edges), Critical: toKeys(critical),
	}
}

func TestFeasibleDetectsDemandReuse(t *testing.T) {
	items := []engine.Item{
		mkItem(0, 0, []int{1}, []int{1}, 1),
		mkItem(1, 0, []int{2}, []int{2}, 1),
	}
	if err := verify.Feasible(items, []int{0, 1}, engine.Unit); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("want demand-reuse error, got %v", err)
	}
	if err := verify.Feasible(items, []int{0}, engine.Unit); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleDetectsEdgeOverCapacity(t *testing.T) {
	items := []engine.Item{
		mkItem(0, 0, []int{1, 2}, []int{1}, 1),
		mkItem(1, 1, []int{2, 3}, []int{2}, 1),
	}
	if err := verify.Feasible(items, []int{0, 1}, engine.Unit); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Fatalf("want capacity error, got %v", err)
	}
	// Narrow heights that fit.
	items[0].Height, items[1].Height = 0.4, 0.5
	if err := verify.Feasible(items, []int{0, 1}, engine.Narrow); err != nil {
		t.Fatal(err)
	}
	// Narrow heights that do not.
	items[1].Height = 0.7
	if err := verify.Feasible(items, []int{0, 1}, engine.Narrow); err == nil {
		t.Fatal("0.4+0.7 on a shared edge should fail")
	}
}

func TestFeasibleRejectsBadID(t *testing.T) {
	items := []engine.Item{mkItem(0, 0, []int{1}, []int{1}, 1)}
	if err := verify.Feasible(items, []int{3}, engine.Unit); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestInterferenceViolationDetected(t *testing.T) {
	// d0 raised first with critical {1}; d1 overlaps d0 on edge 2 only, so
	// π(d0) ∩ path(d1) = ∅ — a violation.
	items := []engine.Item{
		mkItem(0, 0, []int{1, 2}, []int{1}, 1),
		mkItem(1, 1, []int{2, 3}, []int{2}, 1),
	}
	trace := &engine.Trace{Events: []engine.RaiseEvent{
		{Step: 0, Item: 0, Delta: 0.5},
		{Step: 1, Item: 1, Delta: 0.5},
	}}
	if err := verify.Interference(items, trace); err == nil ||
		!strings.Contains(err.Error(), "interference") {
		t.Fatalf("want interference violation, got %v", err)
	}
	// With critical {2} the property holds.
	items[0].Critical = []model.EdgeKey{model.MakeEdgeKey(0, 2)}
	if err := verify.Interference(items, trace); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceSameDemandAllowed(t *testing.T) {
	// Same-demand conflicts share α and need no critical-edge hit.
	items := []engine.Item{
		mkItem(0, 0, []int{1}, []int{1}, 1),
		mkItem(1, 0, []int{5}, []int{5}, 1),
	}
	trace := &engine.Trace{Events: []engine.RaiseEvent{
		{Step: 0, Item: 0}, {Step: 1, Item: 1},
	}}
	if err := verify.Interference(items, trace); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceDoubleRaiseDetected(t *testing.T) {
	items := []engine.Item{mkItem(0, 0, []int{1}, []int{1}, 1)}
	trace := &engine.Trace{Events: []engine.RaiseEvent{
		{Step: 0, Item: 0}, {Step: 1, Item: 0},
	}}
	if err := verify.Interference(items, trace); err == nil {
		t.Fatal("double raise accepted")
	}
}

func TestInterferenceNilTrace(t *testing.T) {
	if err := verify.Interference(nil, nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestStackCoverage(t *testing.T) {
	// Items 0 and 1 conflict (shared edge); 0 raised then 1; selecting 1
	// (the successor) covers 0.
	items := []engine.Item{
		mkItem(0, 0, []int{1, 2}, []int{1}, 1),
		mkItem(1, 1, []int{2, 3}, []int{2}, 1),
	}
	trace := &engine.Trace{Events: []engine.RaiseEvent{
		{Step: 0, Item: 0}, {Step: 1, Item: 1},
	}}
	if err := verify.StackCoverage(items, trace, []int{1}); err != nil {
		t.Fatal(err)
	}
	// Selecting only the predecessor leaves item 1 uncovered.
	if err := verify.StackCoverage(items, trace, []int{0}); err == nil {
		t.Fatal("uncovered successor accepted")
	}
	// Selecting nothing leaves both uncovered.
	if err := verify.StackCoverage(items, trace, nil); err == nil {
		t.Fatal("empty selection with raises accepted")
	}
}

func TestLambdaAtLeast(t *testing.T) {
	items := []engine.Item{mkItem(0, 0, []int{1}, []int{1}, 1)}
	a := dualWith(t, items, 0.6)
	if err := verify.LambdaAtLeast(items, a, engine.Unit, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := verify.LambdaAtLeast(items, a, engine.Unit, 0.7); err == nil {
		t.Fatal("0.6-satisfied accepted as 0.7-satisfied")
	}
}

// dualWith builds an assignment in which item 0's constraint is satisfied to
// the given fraction via α.
func dualWith(t *testing.T, items []engine.Item, frac float64) *dual.Assignment {
	t.Helper()
	ix := dual.NewIndexSized(1, 0)
	slot := ix.Demand(items[0].Demand)
	a := dual.NewWithIndex(ix)
	a.RaiseUnit(slot, frac*items[0].Profit, nil, nil) // α = δ = frac·p
	return a
}
