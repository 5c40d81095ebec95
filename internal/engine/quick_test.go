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
// that selections index valid items, and that every step spent at least
// one MIS iteration. The approximation guarantee itself
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
		if res.MISIters < res.Steps {
			t.Logf("seed %d: %d MIS iterations for %d steps", seed, res.MISIters, res.Steps)
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
