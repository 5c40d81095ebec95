package engine_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/workload"
)

func TestStringers(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{engine.Unit.String(), "unit"},
		{engine.Narrow.String(), "narrow"},
		{engine.Mode(9).String(), "Mode(9)"},
		{engine.IdealDecomp.String(), "ideal"},
		{engine.BalancingDecomp.String(), "balancing"},
		{engine.RootFixingDecomp.String(), "rootfix"},
		{engine.DecompKind(7).String(), "DecompKind(7)"},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

func TestBuildTreeItemsErrors(t *testing.T) {
	bad := &model.Instance{NumVertices: 0}
	if _, err := engine.BuildTreeItems(bad, engine.IdealDecomp); err == nil {
		t.Error("invalid instance accepted")
	}
	good := treeItems(t, workload.TreeConfig{Vertices: 6, Trees: 1, Demands: 2}, 1)
	_ = good
	rngIn, err := workload.RandomTreeInstance(workload.TreeConfig{Vertices: 6, Trees: 1, Demands: 2},
		newRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.BuildTreeItems(rngIn, engine.DecompKind(42)); err == nil ||
		!strings.Contains(err.Error(), "unknown decomposition") {
		t.Errorf("unknown decomposition kind accepted: %v", err)
	}
}

func TestBuildLineItemsErrors(t *testing.T) {
	bad := &model.LineInstance{NumSlots: 0}
	if _, err := engine.BuildLineItems(bad); err == nil {
		t.Error("invalid line instance accepted")
	}
	empty := &model.LineInstance{NumSlots: 5, NumResources: 1}
	items, err := engine.BuildLineItems(empty)
	if err != nil || len(items) != 0 {
		t.Errorf("empty instance: items=%v err=%v", items, err)
	}
}

func TestPlanSingleStage(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 8, Trees: 1, Demands: 3}, 3)
	plan, err := engine.PlanFor(items, engine.Config{Epsilon: 0.2, SingleStage: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages != 1 || len(plan.Thresholds) != 1 {
		t.Fatalf("single-stage plan: %+v", plan)
	}
	if want := 1 / (5 + 0.2); math.Abs(plan.Thresholds[0]-want) > 1e-12 {
		t.Errorf("threshold = %v, want %v", plan.Thresholds[0], want)
	}
}

// TestPlanThresholdsReachEpsilon pins the stage ladder in unit mode on a
// tree and a line and in narrow mode, one set of whose heights reaches down
// to 0.01, which puts ξ within 0.01 of 1: the plan's ξ is the paper's for
// the mode, ∆ and least height, the final threshold reaches 1-ε and the
// thresholds strictly increase, so the last one is the largest — the top
// threshold at which the engine's compacted scan retires an item for the
// rest of its epoch.
func TestPlanThresholdsReachEpsilon(t *testing.T) {
	unit := treeItems(t, workload.TreeConfig{Vertices: 8, Trees: 1, Demands: 3}, 5)
	line := lineItems(t, workload.LineConfig{Slots: 16, Resources: 1, Demands: 4}, 5)
	narrow := treeItems(t, workload.TreeConfig{
		Vertices: 8, Trees: 1, Demands: 3, Heights: workload.NarrowHeights, HMin: 0.1,
	}, 5)
	shallow := slices.Clone(narrow)
	shallow[0].Height = 0.01
	for _, tc := range []struct {
		name    string
		items   []engine.Item
		mode    engine.Mode
		nearOne bool // ξ within 0.01 of 1
	}{
		{"unit", unit, engine.Unit, false},
		{"unit/line", line, engine.Unit, false},
		{"narrow", narrow, engine.Narrow, false},
		{"narrow/hmin=0.01", shallow, engine.Narrow, true},
	} {
		hmin := slices.MinFunc(tc.items, func(a, b engine.Item) int { return cmp.Compare(a.Height, b.Height) }).Height
		for _, eps := range []float64{0.5, 0.2, 0.05} {
			plan, err := engine.PlanFor(tc.items, engine.Config{Mode: tc.mode, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if want := engine.DefaultXi(tc.mode, plan.Delta, hmin); plan.Xi != want {
				t.Errorf("%s ε=%v: plan ξ %v, want DefaultXi(∆ = %d, least height %v) = %v", tc.name, eps, plan.Xi, plan.Delta, hmin, want)
			}
			if tc.nearOne && !(1-plan.Xi < 0.01) {
				t.Errorf("%s ε=%v: ξ %v is not within 0.01 of 1", tc.name, eps, plan.Xi)
			}
			last := plan.Thresholds[len(plan.Thresholds)-1]
			if last < 1-eps {
				t.Errorf("%s ε=%v: final threshold %v below 1-ε", tc.name, eps, last)
			}
			for j := 1; j < len(plan.Thresholds); j++ {
				if plan.Thresholds[j] <= plan.Thresholds[j-1] {
					t.Fatalf("%s ε=%v: thresholds not increasing at stage %d: %v, %v",
						tc.name, eps, j+1, plan.Thresholds[j-1], plan.Thresholds[j])
				}
			}
			if top := slices.Max(plan.Thresholds); last != top {
				t.Errorf("%s ε=%v: last threshold %v is not the largest %v", tc.name, eps, last, top)
			}
		}
	}
}

// newRand is a test convenience.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
