package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/workload"
)

func treeItems(t testing.TB, wcfg workload.TreeConfig, instSeed int64, kind engine.DecompKind) []engine.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(instSeed))
	in, err := workload.RandomTreeInstance(wcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, kind)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// sameAsEngine reports every way dres differs from eres: selection,
// profit, λ, dual bound, raise trace and the replayed dual.
func sameAsEngine(t *testing.T, tag string, eres *engine.Result, dres *dist.Result) {
	t.Helper()
	if !reflect.DeepEqual(eres.Selected, dres.Selected) {
		t.Errorf("%s: selections differ:\nengine %v\ndist   %v", tag, eres.Selected, dres.Selected)
	}
	if eres.Profit != dres.Profit || eres.Lambda != dres.Lambda || eres.Bound != dres.Bound {
		t.Errorf("%s: profit/λ/bound differ: engine (%v, %v, %v) dist (%v, %v, %v)",
			tag, eres.Profit, eres.Lambda, eres.Bound, dres.Profit, dres.Lambda, dres.Bound)
	}
	if !reflect.DeepEqual(eres.Trace, dres.Trace) {
		t.Errorf("%s: traces differ", tag)
	}
	if !reflect.DeepEqual(eres.Dual.AlphaMap(), dres.Dual.AlphaMap()) ||
		!reflect.DeepEqual(eres.Dual.BetaMap(), dres.Dual.BetaMap()) {
		t.Errorf("%s: replayed dual differs from engine dual", tag)
	}
}

// checkCase runs the engine and the protocol once each on the same items
// and Config, requires identical results, and checks the protocol's Stats
// against the golden line for tag.
func checkCase(t *testing.T, tag string, items []engine.Item, cfg engine.Config, opts dist.Options) {
	t.Helper()
	eres, err := engine.Prepare(items).Solve(cfg, 1)
	if err != nil {
		t.Fatalf("%s: engine: %v", tag, err)
	}
	dres, err := dist.RunOpts(items, cfg, opts)
	if err != nil {
		t.Fatalf("%s: dist: %v", tag, err)
	}
	sameAsEngine(t, tag, eres, dres)
	checkStats(t, tag, dres.Stats)
}

// TestEngineEquivalence is the headline invariant: dist and the engine
// return identical results for identical (items, Config) — selection,
// profit, λ, dual bound, dual variables and raise trace — swept over
// seeds × modes × decompositions, with the simulator's Stats pinned by the
// golden.
func TestEngineEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	decomps := []engine.DecompKind{engine.IdealDecomp, engine.BalancingDecomp, engine.RootFixingDecomp}
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for _, kind := range decomps {
			wcfg := workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 11, ProfitRatio: 6}
			if mode == engine.Narrow {
				wcfg.Heights = workload.NarrowHeights
				wcfg.HMin = 0.2
			}
			items := treeItems(t, wcfg, 42+int64(mode), kind)
			for _, seed := range seeds {
				cfg := engine.Config{Mode: mode, Epsilon: 0.3, Seed: seed, RecordTrace: true}
				checkCase(t, fmt.Sprintf("%v/%v/seed %d", mode, kind, seed), items, cfg, dist.Options{})
			}
		}
	}
}

// TestEquivalenceLineItems covers the §7 line reduction path.
func TestEquivalenceLineItems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, err := workload.RandomLineInstance(workload.LineConfig{
		Slots: 24, Resources: 2, Demands: 10, ProcMin: 2, ProcMax: 6,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildLineItems(in)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.2, Seed: seed}
		checkCase(t, fmt.Sprintf("line/seed %d", seed), items, cfg, dist.Options{})
	}
}

// TestEquivalenceSingleStage covers the A2 Panconesi–Sozio-style schedule.
func TestEquivalenceSingleStage(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 14, Trees: 2, Demands: 9, ProfitRatio: 4}, 5, engine.IdealDecomp)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 3, SingleStage: true}
	checkCase(t, "single-stage", items, cfg, dist.Options{})
}

// TestEquivalencePoolFanOut runs the protocol where the simulator's
// stepping pool fans out: each case has more processors than the pool's
// grain, so the rounds that step many nodes split across workers. Every
// case runs at Workers 1 and 4 and must equal the engine at both, with the
// one golden line for its tag.
func TestEquivalencePoolFanOut(t *testing.T) {
	fleet := workload.TreeConfig{Vertices: 64, Trees: 8, Demands: 256, ProfitRatio: 8, AccessMin: 1, AccessMax: 1}
	narrowFleet := fleet
	narrowFleet.Heights, narrowFleet.HMin = workload.NarrowHeights, 0.2
	cases := []struct {
		tag  string
		mode engine.Mode
		wcfg workload.TreeConfig
	}{
		{"pool/fleet/unit", engine.Unit, fleet},
		{"pool/fleet/narrow", engine.Narrow, narrowFleet},
		{"pool/shared/unit", engine.Unit, workload.TreeConfig{Vertices: 64, Trees: 3, Demands: 192, ProfitRatio: 8, AccessMin: 1, AccessMax: 2}},
	}
	for _, tc := range cases {
		items := treeItems(t, tc.wcfg, 17, engine.IdealDecomp)
		cfg := engine.Config{Mode: tc.mode, Epsilon: 0.3, Seed: 5, RecordTrace: true}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.tag, workers), func(t *testing.T) {
				checkCase(t, tc.tag, items, cfg, dist.Options{Workers: workers})
			})
		}
	}
}

// TestRoundAccounting pins the fixed-schedule identity: the simulator walks
// exactly the 1 + T·(2B+1) scheduled rounds (skipping idle ones but still
// counting them), and the caller-facing fields are consistent.
func TestRoundAccounting(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 4}, 9, engine.IdealDecomp)
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantLen := dist.ScheduleLength(res.Plan.TotalSteps(), res.LubyBudget)
	if res.ScheduleRounds != wantLen {
		t.Errorf("ScheduleRounds = %d, want %d", res.ScheduleRounds, wantLen)
	}
	if res.Stats.Rounds != res.ScheduleRounds {
		t.Errorf("Stats.Rounds = %d, want the full schedule %d", res.Stats.Rounds, res.ScheduleRounds)
	}
	if res.Stats.SkippedRounds == 0 {
		t.Error("no rounds fast-forwarded; idle-skip path untested")
	}
	if res.Stats.BusyRounds == 0 || res.Stats.BusyRounds > res.Stats.Rounds-res.Stats.SkippedRounds {
		t.Errorf("BusyRounds = %d out of %d executed", res.Stats.BusyRounds, res.Stats.Rounds-res.Stats.SkippedRounds)
	}
	if res.Stats.Messages == 0 {
		t.Error("protocol moved no messages")
	}
	if res.Processors == 0 {
		t.Error("no processors")
	}
}

// TestMaxMessageSize verifies the §5 O(M) bound as implemented: the largest
// message is one processor's setup descriptor list, at most its item count.
func TestMaxMessageSize(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 20, Trees: 3, Demands: 12, ProfitRatio: 4}, 11, engine.IdealDecomp)
	perOwner := make(map[int]int)
	maxOwn := 0
	for _, it := range items {
		perOwner[it.Demand]++
		if perOwner[it.Demand] > maxOwn {
			maxOwn = perOwner[it.Demand]
		}
	}
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageSize > maxOwn {
		t.Errorf("max message %d exceeds largest per-processor item count %d", res.Stats.MaxMessageSize, maxOwn)
	}
}

// TestEmptyItems: the degenerate instance runs and matches the engine.
func TestEmptyItems(t *testing.T) {
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3}
	eres, err := engine.Prepare(nil).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dist.Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eres.Selected, dres.Selected) || dres.Profit != 0 {
		t.Errorf("empty run: engine %v vs dist %v (profit %v)", eres.Selected, dres.Selected, dres.Profit)
	}
}

// TestInvalidConfigRejected: PlanFor's validation surfaces unchanged.
func TestInvalidConfigRejected(t *testing.T) {
	for _, eps := range []float64{2, math.NaN()} {
		if _, err := dist.Run(nil, engine.Config{Epsilon: eps}); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
}

// TestLubyBudgetMonotone: the budget grows with n and stays positive.
func TestLubyBudgetMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{0, 1, 2, 10, 100, 1000, 100000} {
		b := dist.LubyBudgetFor(n)
		if b <= 0 {
			t.Fatalf("LubyBudgetFor(%d) = %d", n, b)
		}
		if b < prev {
			t.Fatalf("budget not monotone at n=%d: %d < %d", n, b, prev)
		}
		prev = b
	}
	if got := dist.ScheduleLength(0, 5); got != 1 {
		t.Errorf("ScheduleLength(0, 5) = %d, want 1", got)
	}
	if got := dist.ScheduleLength(3, 2); got != 16 {
		t.Errorf("ScheduleLength(3, 2) = %d, want 16", got)
	}
}

// TestDualBoundsAgree sanity-checks that the distributed selection respects
// the engine's certified bound (it must, being identical).
func TestDualBoundsAgree(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 8}, 21, engine.IdealDecomp)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.2, Seed: 6}
	eres, err := engine.Prepare(items).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dist.Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Profit > eres.Bound+1e-9 {
		t.Errorf("distributed profit %v exceeds certified bound %v", dres.Profit, eres.Bound)
	}
	if math.IsNaN(dres.Profit) {
		t.Error("NaN profit")
	}
}

// TestCompactNodeState pins the tentpole memory claim: per-node private
// state stays a small constant number of bytes per demand on a fleet
// workload (many small trees, one accessible tree per demand — the shape
// million-demand runs use), with all layout data accounted to the shared
// read-only context. A node that starts copying critical sets or conflict
// maps again blows through the bound immediately (the pre-compaction
// runtime sat in the tens of kilobytes per demand on this workload).
// What remains per node is dominated by the per-neighbor outbox buckets —
// a small constant per conflict-graph neighbor — plus the dense local
// dual; ~4.2KB/demand at this workload's conflict degree (~60).
func TestCompactNodeState(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 64, Trees: 32, Demands: 2048, ProfitRatio: 8,
		AccessMin: 1, AccessMax: 1,
	}, 13, engine.IdealDecomp)
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processors == 0 || res.NodeStateBytes == 0 || res.SharedStateBytes == 0 {
		t.Fatalf("accounting missing: processors %d, node bytes %d, shared bytes %d",
			res.Processors, res.NodeStateBytes, res.SharedStateBytes)
	}
	perDemand := res.NodeStateBytes / int64(res.Processors)
	const maxPerDemand = 6144
	if perDemand > maxPerDemand {
		t.Errorf("node state regressed: %d bytes/demand, budget %d (total %d over %d processors)",
			perDemand, int64(maxPerDemand), res.NodeStateBytes, res.Processors)
	}
	t.Logf("node state: %d bytes/demand private, %d bytes shared context", perDemand, res.SharedStateBytes)
}

// TestSharedCoreBetaGain pins the β-replay rule against the dual raise
// rules, the invariant that keeps remote β copies bit-identical: a node
// absorbing a raise adds BetaGain to each critical β, as absorbRaises does.
func TestSharedCoreBetaGain(t *testing.T) {
	e1 := model.MakeEdgeKey(0, 1)
	e2 := model.MakeEdgeKey(0, 2)
	p := engine.Prepare([]engine.Item{{Demand: 0, Group: 1, Profit: 3, Height: 0.4,
		Edges: []model.EdgeKey{e1, e2}, Critical: []model.EdgeKey{e1, e2}}})
	v := &p.Views()[0]

	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		raiser := engine.Core{Mode: mode, Dual: dual.NewDense(p.DemandSlots(), p.EdgeSlots())}
		observer := engine.Core{Mode: mode, Dual: dual.NewDense(p.DemandSlots(), p.EdgeSlots())}
		delta := raiser.Raise(v)
		if delta <= 0 {
			t.Fatalf("%v: delta = %v", mode, delta)
		}
		observer.Dual.AddBeta(v.Critical, engine.BetaGain(mode, len(v.Critical), delta))
		for _, e := range v.Critical {
			if raiser.Dual.Beta(e) != observer.Dual.Beta(e) {
				t.Errorf("%v: β(%d) raiser %v observer %v", mode, e, raiser.Dual.Beta(e), observer.Dual.Beta(e))
			}
		}
	}
}
