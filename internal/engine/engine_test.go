package engine_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/seq"
	"treesched/internal/verify"
	"treesched/internal/workload"
)

func treeItems(t *testing.T, cfg workload.TreeConfig, seed int64) []engine.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func lineItems(t *testing.T, cfg workload.LineConfig, seed int64) []engine.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomLineInstance(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildLineItems(in)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func TestUnitTreeInvariants(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 24, Trees: 2, Demands: 14, ProfitRatio: 16,
		}, seed)
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed, RecordTrace: true}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Feasible(items, res.Selected, engine.Unit); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.Interference(items, res.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.StackCoverage(items, res.Trace, res.Selected); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Lambda < 1-cfg.Epsilon-1e-9 {
			t.Fatalf("seed %d: lambda %v < 1-ε", seed, res.Lambda)
		}
		if res.Delta > 6 {
			t.Fatalf("seed %d: ∆ = %d > 6 (Lemma 4.3)", seed, res.Delta)
		}
		// Lemma 3.1 accounting: Bound = val/λ ≤ (∆+1)·p(S)/λ.
		if limit := float64(res.Delta+1) / res.Lambda * res.Profit; res.Bound > limit+1e-6 {
			t.Fatalf("seed %d: bound %v exceeds (∆+1)p(S)/λ = %v", seed, res.Bound, limit)
		}
	}
}

func TestUnitTreeApproximationAgainstOptimum(t *testing.T) {
	// Theorem 5.3: p(S) ≥ p(Opt)/(7+ε). Verified against brute force on
	// small instances, and Opt ≤ Bound (weak duality).
	worst := 1.0
	for seed := int64(0); seed < 25; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 12, Trees: 2, Demands: 9, ProfitRatio: 8,
		}, 100+seed)
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := seq.Brute(items, true)
		if opt > res.Bound+1e-6 {
			t.Fatalf("seed %d: optimum %v exceeds dual bound %v", seed, opt, res.Bound)
		}
		guarantee := 7.0 / (1 - cfg.Epsilon)
		if res.Profit*guarantee < opt-1e-6 {
			t.Fatalf("seed %d: ratio %v exceeds (7+ε) guarantee %v", seed, opt/res.Profit, guarantee)
		}
		if res.Profit > 0 {
			if r := opt / res.Profit; r > worst {
				worst = r
			}
		}
	}
	t.Logf("worst measured ratio over 25 instances: %.3f (bound 7.78)", worst)
}

func TestNarrowTreeInvariants(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 4,
			Heights: workload.NarrowHeights, HMin: 0.1,
		}, seed)
		cfg := engine.Config{Mode: engine.Narrow, Epsilon: 0.15, Seed: seed, RecordTrace: true}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Feasible(items, res.Selected, engine.Narrow); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.Interference(items, res.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Lambda < 1-cfg.Epsilon-1e-9 {
			t.Fatalf("seed %d: lambda %v < 1-ε", seed, res.Lambda)
		}
		// Lemma 6.1 accounting: Bound ≤ (2∆²+1)·p(S)/λ.
		limit := float64(2*res.Delta*res.Delta+1) / res.Lambda * res.Profit
		if res.Bound > limit+1e-6 {
			t.Fatalf("seed %d: bound %v exceeds (2∆²+1)p(S)/λ = %v", seed, res.Bound, limit)
		}
	}
}

func TestNarrowTreeAgainstOptimum(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 10, Trees: 1, Demands: 8, ProfitRatio: 4,
			Heights: workload.NarrowHeights, HMin: 0.15,
		}, 300+seed)
		cfg := engine.Config{Mode: engine.Narrow, Epsilon: 0.15, Seed: seed}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := seq.Brute(items, false)
		if opt > res.Bound+1e-6 {
			t.Fatalf("seed %d: optimum %v exceeds dual bound %v", seed, opt, res.Bound)
		}
		guarantee := float64(2*res.Delta*res.Delta+1) / (1 - cfg.Epsilon)
		if res.Profit*guarantee < opt-1e-6 {
			t.Fatalf("seed %d: ratio %v exceeds guarantee %v", seed, opt/res.Profit, guarantee)
		}
	}
}

func TestLineUnitWithWindows(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		items := lineItems(t, workload.LineConfig{
			Slots: 30, Resources: 2, Demands: 10, ProfitRatio: 8,
			ProcMin: 2, ProcMax: 8, WindowSlack: 4,
		}, seed)
		if d := engine.MaxCritical(items); d > 3 {
			t.Fatalf("seed %d: line ∆ = %d > 3", seed, d)
		}
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed, RecordTrace: true}
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Feasible(items, res.Selected, engine.Unit); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.Interference(items, res.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Lambda < 1-cfg.Epsilon-1e-9 {
			t.Fatalf("seed %d: lambda %v", seed, res.Lambda)
		}
		// Theorem 7.1 guarantee vs brute force (items can exceed the brute
		// limit with windows, so check only when small enough).
		if len(items) <= seq.BruteForceLimit {
			opt, _ := seq.Brute(items, true)
			if res.Profit*4/(1-cfg.Epsilon) < opt-1e-6 {
				t.Fatalf("seed %d: ratio %v exceeds 4+ε", seed, opt/res.Profit)
			}
		}
	}
}

func TestArbitraryHeightCombined(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 12, Trees: 2, Demands: 9, ProfitRatio: 4,
			Heights: workload.MixedHeights, HMin: 0.1,
		}, 500+seed)
		res, err := engine.SolveArbitrary(items, engine.Config{Epsilon: 0.15, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.FeasibleHeights(items, res.Selected); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, _ := seq.Brute(items, false)
		if opt > res.Bound+1e-6 {
			t.Fatalf("seed %d: optimum %v exceeds combined bound %v", seed, opt, res.Bound)
		}
		// Theorem 6.3: (80+ε) with ∆=6; with ε=0.15 the formal guarantee is
		// (7+73)/(1-ε) ≈ 94.1.
		if res.Profit > 0 {
			if r := opt / res.Profit; r > 80/(1-0.15)+1 {
				t.Fatalf("seed %d: combined ratio %v exceeds theorem bound", seed, r)
			}
		} else if opt > 0 {
			t.Fatalf("seed %d: empty solution but optimum %v > 0", seed, opt)
		}
	}
}

// TestHeightClassesPerResource pins §6's combination with a stub class
// solver that selects every item of its class: on each resource the class
// earning more there keeps its items, the wide class on a tie.
func TestHeightClassesPerResource(t *testing.T) {
	e := []model.EdgeKey{model.MakeEdgeKey(0, 1)}
	item := func(id, resource int, height, profit float64) engine.Item {
		return engine.Item{ID: id, Demand: id, Resource: resource, Group: 1, Profit: profit, Height: height, Edges: e, Critical: e}
	}
	items := []engine.Item{
		item(0, 0, 1, 2), item(1, 0, 0.3, 1), item(2, 0, 0.4, 1), // resource 0: wide 2, narrow 2
		item(3, 1, 0.9, 1), item(4, 1, 0.2, 3), // resource 1: wide 1, narrow 3
		item(5, 2, 0.5, 4), // resource 2: narrow only
		item(6, 4, 0.6, 5), // resource 4: wide only
	}
	all := func(class []engine.Item, _ engine.Config) ([]int, error) {
		ids := make([]int, len(class))
		for i := range ids {
			ids[i] = i
		}
		return ids, nil
	}
	selected, profit, err := engine.SolveHeightClasses(items, engine.Config{Epsilon: 0.1}, all)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 4, 5, 6}; !reflect.DeepEqual(selected, want) || profit != 14 {
		t.Fatalf("selected %v with profit %v, want %v with profit 14", selected, profit, want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 20, Trees: 3, Demands: 15, ProfitRatio: 10,
	}, 7)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 99}
	a, err := engine.Prepare(items).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Prepare(items).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Selected, b.Selected) || a.Profit != b.Profit || a.Steps != b.Steps {
		t.Fatalf("identical configs diverged: %v vs %v", a.Selected, b.Selected)
	}
	c, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A different seed is allowed to differ (and almost surely does in the
	// MIS draws); we only require it to still be feasible.
	if err := verify.Feasible(items, c.Selected, engine.Unit); err != nil {
		t.Fatal(err)
	}
}

func TestSingleStageAblation(t *testing.T) {
	// The PS-style single-stage schedule must still produce feasible
	// solutions satisfying the interference property, with λ ≈ 1/(5+ε).
	items := treeItems(t, workload.TreeConfig{
		Vertices: 15, Trees: 2, Demands: 12, ProfitRatio: 8,
	}, 13)
	res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, SingleStage: true, RecordTrace: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Feasible(items, res.Selected, engine.Unit); err != nil {
		t.Fatal(err)
	}
	if err := verify.Interference(items, res.Trace); err != nil {
		t.Fatal(err)
	}
	want := 1 / (5 + 0.1)
	if res.Lambda < want-1e-9 {
		t.Fatalf("single-stage lambda %v below 1/(5+ε) = %v", res.Lambda, want)
	}
	if res.Stages != 1 {
		t.Fatalf("single-stage run reported %d stages", res.Stages)
	}
}

func TestStepCountLemma51(t *testing.T) {
	// Lemma 5.1: steps per stage ≤ 1 + log₂(pmax/pmin). Check the aggregate:
	// Steps ≤ Epochs·Stages·(1+log₂(pmax/pmin)) and that runs with larger
	// profit spread do not blow past the cap (Run errors if they do).
	for _, ratio := range []float64{1, 4, 64, 1024} {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 20, Trees: 2, Demands: 20, ProfitRatio: ratio,
		}, 17)
		res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 1}, 1)
		if err != nil {
			t.Fatalf("ratio %v: %v", ratio, err)
		}
		perStage := 1 + math.Log2(ratio) + 1 // +1 slack for the empty-check step
		if float64(res.Steps) > float64(res.Epochs*res.Stages)*perStage {
			t.Errorf("ratio %v: %d steps exceeds %d·%d·%.1f", ratio, res.Steps, res.Epochs, res.Stages, perStage)
		}
	}
}

func TestRunValidation(t *testing.T) {
	good := treeItems(t, workload.TreeConfig{Vertices: 8, Trees: 1, Demands: 3}, 19)
	tests := []struct {
		name  string
		items []engine.Item
		cfg   engine.Config
	}{
		{"epsilon zero", good, engine.Config{Epsilon: 0}},
		{"epsilon one", good, engine.Config{Epsilon: 1}},
		// A least height below the last bit of C = 1+∆² rounds the narrow
		// ξ = C/(C+hmin) to 1, whose ladder would never reach 1-ε.
		{"bad xi", func() []engine.Item {
			bad := append([]engine.Item(nil), good...)
			for i := range bad {
				bad[i].Height = 0.25
			}
			bad[0].Height = 1e-300
			return bad
		}(), engine.Config{Epsilon: 0.1, Mode: engine.Narrow}},
		{"epsilon NaN", good, engine.Config{Epsilon: math.NaN()}},
		{"bad id", func() []engine.Item {
			bad := append([]engine.Item(nil), good...)
			bad[0].ID = 5
			return bad
		}(), engine.Config{Epsilon: 0.1}},
		{"bad group", func() []engine.Item {
			bad := append([]engine.Item(nil), good...)
			bad[1].Group = 0
			return bad
		}(), engine.Config{Epsilon: 0.1}},
		{"empty critical", func() []engine.Item {
			bad := append([]engine.Item(nil), good...)
			bad[1].Critical = nil
			return bad
		}(), engine.Config{Epsilon: 0.1}},
		{"narrow with wide item", good, engine.Config{Epsilon: 0.1, Mode: engine.Narrow}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := engine.Prepare(tc.items).Solve(tc.cfg, 1); err == nil {
				t.Fatal("Run succeeded, want error")
			}
		})
	}
}

func TestEmptyItems(t *testing.T) {
	res, err := engine.Prepare(nil).Solve(engine.Config{Epsilon: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || res.Profit != 0 {
		t.Fatalf("empty run produced %+v", res)
	}
}

// TestLambdaAndBound pins the engine's scoring rule, through ReplayDual:
// λ = min(1, min LHS/p) over every item's constraint and the bound
// Value/λ, +Inf when some constraint has LHS 0, and 0 for no items.
func TestLambdaAndBound(t *testing.T) {
	e1, e2 := model.MakeEdgeKey(0, 1), model.MakeEdgeKey(0, 2)
	p := engine.Prepare([]engine.Item{
		{ID: 0, Demand: 0, Group: 1, Profit: 10, Height: 1, Edges: []model.EdgeKey{e1, e2}, Critical: []model.EdgeKey{e1}},
		{ID: 1, Demand: 1, Group: 1, Profit: 9, Height: 1, Edges: []model.EdgeKey{e2}, Critical: []model.EdgeKey{e2}},
	})
	// Raising item 1 gives α1 = β(e2) = 4.5: item 1 is tight (ratio 1),
	// item 0 reads β(e1) + β(e2) = 4.5 of 10.
	d, lambda, bound := p.ReplayDual(engine.Unit, [][]int{{1}})
	if d.Value() != 9 || math.Abs(lambda-0.45) > 1e-12 {
		t.Fatalf("Value %v, λ %v; want 9 and 0.45", d.Value(), lambda)
	}
	if math.Abs(bound-20) > 1e-9 { // 9/0.45
		t.Fatalf("bound %v, want 20", bound)
	}
	if _, lambda, bound := p.ReplayDual(engine.Unit, nil); lambda != 0 || !math.IsInf(bound, 1) {
		t.Errorf("no raises: λ %v, bound %v; want 0 and +Inf", lambda, bound)
	}
	if _, lambda, bound := engine.Prepare(nil).ReplayDual(engine.Unit, nil); lambda != 0 || bound != 0 {
		t.Errorf("no items: λ %v, bound %v; want 0 and 0", lambda, bound)
	}
}

// TestBuildConflictsMatchesDefinition checks the engine's conflict
// structure against the model's definition of conflicting demand
// instances: two items share a member list — an edge list or a demand's
// items — iff model.Conflicting holds, and the engine's components are
// those of the definitional adjacency.
func TestBuildConflictsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 14, Trees: 2, Demands: 10, ProfitRatio: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	prep := engine.Prepare(items)
	shared := make([][]bool, len(items))
	for i := range shared {
		shared[i] = make([]bool, len(items))
	}
	lists := prep.EdgeMembers()
	for _, it := range items {
		lists = append(lists, prep.ItemsOfDemand(it.Demand))
	}
	for _, list := range lists {
		for _, a := range list {
			for _, b := range list {
				shared[a][b] = a != b
			}
		}
	}
	dis := in.Expand()
	adj := make([][]int, len(dis))
	for a := range dis {
		for b := range dis {
			want := model.Conflicting(&dis[a], &dis[b])
			if want {
				adj[a] = append(adj[a], b)
			}
			if shared[a][b] != want {
				t.Fatalf("items %d and %d: share a member list %v, conflicting %v", a, b, shared[a][b], want)
			}
		}
	}
	if got, want := prep.Components(), oracleComponents(adj); !reflect.DeepEqual(got, want) {
		t.Fatalf("components %v, oracle %v", got, want)
	}
}

func TestOwnerSeedDispersion(t *testing.T) {
	seen := map[int64]bool{}
	for owner := 0; owner < 1000; owner++ {
		s := engine.OwnerSeed(42, owner)
		if s < 0 {
			t.Fatalf("negative seed %d for owner %d", s, owner)
		}
		if seen[s] {
			t.Fatalf("duplicate seed for owner %d", owner)
		}
		seen[s] = true
	}
	if engine.OwnerSeed(1, 5) == engine.OwnerSeed(2, 5) {
		t.Error("different run seeds should give different owner seeds")
	}
}

func TestDefaultXiValues(t *testing.T) {
	// §5: trees ∆=6 → 14/15. §7: lines ∆=3 → 8/9.
	if xi := engine.DefaultXi(engine.Unit, 6, 1); math.Abs(xi-14.0/15) > 1e-12 {
		t.Errorf("tree xi = %v, want 14/15", xi)
	}
	if xi := engine.DefaultXi(engine.Unit, 3, 1); math.Abs(xi-8.0/9) > 1e-12 {
		t.Errorf("line xi = %v, want 8/9", xi)
	}
	// Narrow: C/(C+hmin), C = 1+∆².
	if xi := engine.DefaultXi(engine.Narrow, 6, 0.25); math.Abs(xi-37/37.25) > 1e-12 {
		t.Errorf("narrow xi = %v, want 37/37.25", xi)
	}
}
