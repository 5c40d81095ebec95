package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/workload"
)

func conflictsBenchItems(b *testing.B) []engine.Item {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 1024, Trees: 3, Demands: 768, ProfitRatio: 16,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		b.Fatal(err)
	}
	return items
}

// BenchmarkPrepareCold measures the full preparation — interning and member
// lists — the fixed cost the delta path avoids.
func BenchmarkPrepareCold(b *testing.B) {
	items := conflictsBenchItems(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Prepare(items)
	}
}

// BenchmarkApplyDelta measures one incremental churn round at the same
// size: 5% of the items depart and the same items re-arrive in a single
// Apply. Compare against BenchmarkPrepareCold for the delta-vs-rebuild
// ratio. This is the incremental path's worst case — one fully contended
// component, where churning 5% of the demands touches most groups — so the
// ratio here is modest; BenchmarkApplyDeltaFleet measures the locality
// regime the path is built for.
func BenchmarkApplyDelta(b *testing.B) {
	items := conflictsBenchItems(b)
	p := engine.Prepare(slices.Clone(items))
	k := len(items) / 20
	remove := make([]int, k)
	for i := range remove {
		remove[i] = i * (len(items) / k) // spread the churn across the set
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := p.Items()
		add := make([]engine.Item, k)
		for j, id := range remove {
			add[j] = cur[id]
		}
		if err := p.Apply(engine.Delta{Remove: remove, Add: add}); err != nil {
			b.Fatal(err)
		}
	}
}

func fleetBenchItems(b *testing.B) []engine.Item {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 256, Trees: 16, Demands: 1024, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		b.Fatal(err)
	}
	return items
}

// BenchmarkPrepareColdFleet is the rebuild baseline on the fleet workload.
func BenchmarkPrepareColdFleet(b *testing.B) {
	items := fleetBenchItems(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Prepare(items)
	}
}

// BenchmarkApplyDeltaFleet measures local churn on a fleet of disjoint
// networks: each round churns ~3% of the demands, all attached to one
// rotating network, the arrival pattern of a multi-tenant service. Only
// the touched component's groups and shards rebuild, so the delta-vs-rebuild
// ratio is what the incremental path is sized for (target ≥ 5×).
func BenchmarkApplyDeltaFleet(b *testing.B) {
	items := fleetBenchItems(b)
	p := engine.Prepare(slices.Clone(items))
	trees := 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % trees
		cur := p.Items()
		var remove []int
		var add []engine.Item
		for id := range cur {
			if cur[id].Resource == q && len(remove) < len(cur)/32 {
				remove = append(remove, id)
				add = append(add, cur[id])
			}
		}
		if err := p.Apply(engine.Delta{Remove: remove, Add: add}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSolveChurnFleet measures one steady-state serving round on the
// fleet workload — a component-local churn (one rotating network, ~3% of
// the demands) followed by a full re-solve — with the warm-start cache on
// (the sharded pipeline, replaying untouched components) or off (the
// serial engine, at every worker count). The warm/cold ns ratio is the
// replay win.
func benchmarkSolveChurnFleet(b *testing.B, warm bool, workers int) {
	items := fleetBenchItems(b)
	p := engine.Prepare(slices.Clone(items))
	if warm {
		p.EnableWarmStart()
	}
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 2}
	if _, err := p.RunParallel(cfg, workers); err != nil { // prime shards+cache
		b.Fatal(err)
	}
	trees := 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % trees
		cur := p.Items()
		var remove []int
		var add []engine.Item
		for id := range cur {
			if cur[id].Resource == q && len(remove) < len(cur)/32 {
				remove = append(remove, id)
				add = append(add, cur[id])
			}
		}
		if err := p.Apply(engine.Delta{Remove: remove, Add: add}); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunParallel(cfg, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveChurnFleetWarm(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", w), func(b *testing.B) { benchmarkSolveChurnFleet(b, true, w) })
	}
}

func BenchmarkSolveChurnFleetCold(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", w), func(b *testing.B) { benchmarkSolveChurnFleet(b, false, w) })
	}
}
