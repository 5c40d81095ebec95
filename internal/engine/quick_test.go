package engine_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treesched/internal/engine"
	"treesched/internal/verify"
	"treesched/internal/workload"
)

// TestEngineInvariantsQuick fuzzes instance shapes and configurations and
// checks the engine's unconditional invariants on each run: solution
// feasibility, interference property, final λ-satisfaction, stack coverage,
// and that selections index valid items. The approximation guarantee itself
// is covered by the brute-force tests; these invariants must hold on *every*
// input, not just builder-produced sweeps.
func TestEngineInvariantsQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mode := engine.Unit
		heights := workload.UnitHeights
		if r.Intn(2) == 0 {
			mode = engine.Narrow
			heights = workload.NarrowHeights
		}
		wcfg := workload.TreeConfig{
			Vertices:    4 + r.Intn(40),
			Trees:       1 + r.Intn(3),
			Demands:     1 + r.Intn(20),
			ProfitRatio: 1 + float64(r.Intn(64)),
			Heights:     heights,
			HMin:        0.05 + 0.3*r.Float64(),
		}
		if r.Intn(3) == 0 {
			wcfg.Shape = workload.Topologies()[r.Intn(len(workload.Topologies()))]
		}
		in, err := workload.RandomTreeInstance(wcfg, r)
		if err != nil {
			t.Logf("seed %d: generator: %v", seed, err)
			return false
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			t.Logf("seed %d: builder: %v", seed, err)
			return false
		}
		cfg := engine.Config{
			Mode:        mode,
			Epsilon:     0.05 + 0.5*r.Float64(),
			Seed:        r.Int63(),
			RecordTrace: true,
		}
		if r.Intn(4) == 0 {
			cfg.MIS = engine.GreedyMIS
		}
		if r.Intn(5) == 0 {
			cfg.SingleStage = true
		}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		if err := verify.Feasible(items, res.Selected, mode); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := verify.Interference(items, res.Trace); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := verify.StackCoverage(items, res.Trace, res.Selected); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		wantLambda := 1 - cfg.Epsilon
		if cfg.SingleStage {
			wantLambda = 1 / (5 + cfg.Epsilon)
		}
		if err := verify.LambdaAtLeast(items, res.Dual, mode, wantLambda); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	maxCount := 120
	if testing.Short() {
		maxCount = 25
	}
	if err := quick.Check(check, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLineInvariantsQuick is the same fuzz over line instances with
// windows.
func TestEngineLineInvariantsQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, err := workload.RandomLineInstance(workload.LineConfig{
			Slots:       8 + r.Intn(40),
			Resources:   1 + r.Intn(3),
			Demands:     1 + r.Intn(12),
			ProfitRatio: 1 + float64(r.Intn(32)),
			ProcMin:     1 + r.Intn(3),
			ProcMax:     2 + r.Intn(8),
			WindowSlack: r.Intn(5),
		}, r)
		if err != nil {
			t.Logf("seed %d: generator: %v", seed, err)
			return false
		}
		items, err := engine.BuildLineItems(in)
		if err != nil {
			t.Logf("seed %d: builder: %v", seed, err)
			return false
		}
		if engine.MaxCritical(items) > 3 {
			t.Logf("seed %d: line ∆ > 3", seed)
			return false
		}
		cfg := engine.Config{
			Mode:        engine.Unit,
			Epsilon:     0.05 + 0.5*r.Float64(),
			Seed:        r.Int63(),
			RecordTrace: true,
		}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		if err := verify.Feasible(items, res.Selected, engine.Unit); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := verify.Interference(items, res.Trace); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	maxCount := 80
	if testing.Short() {
		maxCount = 20
	}
	if err := quick.Check(check, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestXiOverride checks that a custom ξ still yields a valid run and more
// stages for ξ closer to 1.
func TestXiOverride(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 12, Trees: 1, Demands: 6}, 31)
	lo, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Xi: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Xi: 0.97}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Stages <= lo.Stages {
		t.Errorf("ξ=0.97 gave %d stages, ξ=0.5 gave %d; want more stages for larger ξ", hi.Stages, lo.Stages)
	}
	if lo.Lambda < 0.9-1e-9 || hi.Lambda < 0.9-1e-9 {
		t.Errorf("λ targets missed: %v, %v", lo.Lambda, hi.Lambda)
	}
}

// TestHMinOverride checks the narrow-mode hmin override shapes ξ.
func TestHMinOverride(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 12, Trees: 1, Demands: 6, Heights: workload.NarrowHeights, HMin: 0.3,
	}, 37)
	def := engine.Config{Mode: engine.Narrow, Epsilon: 0.2}
	if _, err := engine.PlanFor(items, &def); err != nil {
		t.Fatal(err)
	}
	small := engine.Config{Mode: engine.Narrow, Epsilon: 0.2, HMin: 0.01}
	if _, err := engine.PlanFor(items, &small); err != nil {
		t.Fatal(err)
	}
	// Smaller hmin ⇒ ξ closer to 1 ⇒ more stages needed.
	if small.Xi <= def.Xi {
		t.Errorf("hmin=0.01 gave ξ=%v, derived hmin gave ξ=%v; want larger", small.Xi, def.Xi)
	}
}

// TestCommRoundsConsistency: the engine's round estimate matches its parts.
func TestCommRoundsConsistency(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 8}, 41)
	res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*res.MISIters + 2*res.Steps; res.CommRounds != want {
		t.Errorf("CommRounds = %d, want %d", res.CommRounds, want)
	}
	if res.MISIters < res.Steps {
		t.Errorf("each step needs at least one MIS iteration: %d < %d", res.MISIters, res.Steps)
	}
}
