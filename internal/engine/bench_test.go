package engine_test

import (
	"math/rand"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/workload"
)

func benchItems(b *testing.B, m int) []engine.Item {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: m, Trees: 2, Demands: m, ProfitRatio: 16,
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

// BenchmarkRunCold measures a cold solve: Prepare and Solve over one item
// set every op.
func BenchmarkRunCold(b *testing.B) {
	items := benchItems(b, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: int64(i)}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPrepared measures the schedule alone: repeated solves over
// one prepared item set, where the member lists and the dense dual layout
// are built once outside the loop. Compare against BenchmarkRunCold (same
// workload, cold prepare every op) for preparation's share of a cold
// solve.
func BenchmarkRunPrepared(b *testing.B) {
	items := benchItems(b, 256)
	p := engine.Prepare(items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: int64(i)}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunArbitrary(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 128, Trees: 2, Demands: 128, ProfitRatio: 8,
		Heights: workload.MixedHeights, HMin: 0.1,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.SolveArbitrary(items, engine.Config{Epsilon: 0.15, Seed: int64(i)}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
