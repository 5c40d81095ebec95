// Benchmarks, one per experiment of internal/experiments (E1..E12,
// A1..A3). Each benchmark exercises the code path that regenerates the
// experiment's table (`go run ./cmd/schedbench -experiment ID` prints it);
// `go test -bench=. -benchmem` therefore re-runs the entire reproduction
// surface. Benchmarks use fixed seeds so allocations and
// timings are comparable across runs.
package treesched_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	treesched "treesched"
	"treesched/internal/decomp"
	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/experiments"
	"treesched/internal/graph/graphtest"
	"treesched/internal/seq"
	"treesched/internal/workload"
)

// runExperiment benches the full experiment table generation (quick mode).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Config{Seed: 1, Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Figure1(b *testing.B)       { runExperiment(b, "E1") }
func BenchmarkE2Figure2(b *testing.B)       { runExperiment(b, "E2") }
func BenchmarkE3Decomposition(b *testing.B) { runExperiment(b, "E3") }
func BenchmarkE4IdealDecomp(b *testing.B)   { runExperiment(b, "E4") }
func BenchmarkE5Layered(b *testing.B)       { runExperiment(b, "E5") }
func BenchmarkE6UnitTree(b *testing.B)      { runExperiment(b, "E6") }
func BenchmarkE7ArbitraryTree(b *testing.B) { runExperiment(b, "E7") }
func BenchmarkE8LineUnit(b *testing.B)      { runExperiment(b, "E8") }
func BenchmarkE9LineArbitrary(b *testing.B) { runExperiment(b, "E9") }
func BenchmarkE10StageSteps(b *testing.B)   { runExperiment(b, "E10") }
func BenchmarkE11SequentialTree(b *testing.B) {
	runExperiment(b, "E11")
}
func BenchmarkE12Messages(b *testing.B)      { runExperiment(b, "E12") }
func BenchmarkA1DecompAblation(b *testing.B) { runExperiment(b, "A1") }
func BenchmarkA2StageAblation(b *testing.B)  { runExperiment(b, "A2") }
func BenchmarkA3Equivalence(b *testing.B)    { runExperiment(b, "A3") }

// --- component-level benchmarks -----------------------------------------

// BenchmarkIdealDecomposition measures Lemma 4.1 construction cost by size.
func BenchmarkIdealDecomposition(b *testing.B) {
	for _, n := range []int{63, 255, 1023, 4095} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tr := graphtest.RandomTree(n, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := decomp.Ideal(tr)
				if h.PivotSize() > 2 {
					b.Fatal("pivot size exceeded 2")
				}
			}
		})
	}
}

// BenchmarkEngineUnitTree times one cold engine solve by instance size:
// Prepare over prebuilt items (layout and member lists), then Solve(cfg, 1),
// both phases of the serial engine.
func BenchmarkEngineUnitTree(b *testing.B) {
	for _, sz := range []struct{ n, m, r int }{{64, 48, 2}, {256, 192, 3}, {1024, 768, 3}} {
		b.Run(fmt.Sprintf("m=%d", sz.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: sz.n, Trees: sz.r, Demands: sz.m, ProfitRatio: 16,
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
				if _, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: int64(i)}, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineShardedFleet measures the sharded pipeline on its best
// case: a fleet of disjoint networks (every demand pinned to one), where
// the conflict graph splits into many components and shards run
// concurrently. Only the warm-start cache shards, so each op solves a
// fresh Prepared with the cache on; a fresh cache replays nothing, so
// every op runs the component pass and every shard's schedule.
func BenchmarkEngineShardedFleet(b *testing.B) {
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
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prep := engine.Prepare(items)
				prep.EnableWarmStart()
				if _, err := prep.Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: int64(i)}, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionRoundFleet times one warm Session round — Update with 8
// departures and 8 arrivals on one network, then SolveWithItems — on
// fleets of 16, 64 and 256 networks (fleetChurn: 256-vertex trees, 48
// pinned demands per network), at Parallelism 1 and ε 0.1, so that its
// rows show how a round grows with the fleet at fixed churn. Every round's
// churn is built, and 50 warm-up rounds run, before the timer starts, so
// every timed arrival takes a slot a departure freed. Besides the mean
// (ns/op) it reports the median round as p50-ns.
func BenchmarkSessionRoundFleet(b *testing.B) {
	for _, nets := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("nets=%d", nets), func(b *testing.B) {
			const warmup = 50
			sess, rounds := fleetChurn(b, treesched.Options{Parallelism: 1}, nets, warmup+b.N)
			round := func(c treesched.Churn) {
				if _, err := sess.Update(c); err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := sess.SolveWithItems(); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range rounds[:warmup] {
				round(c)
			}
			lat := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i, c := range rounds[warmup:] {
				start := time.Now()
				round(c)
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		})
	}
}

// BenchmarkSolverCachedDecomposition measures the batch surface: repeated
// solves over the same networks, where the Solver's decomposition cache
// skips the per-tree Ideal construction.
func BenchmarkSolverCachedDecomposition(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 512, Trees: 4, Demands: 256, ProfitRatio: 16,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *treesched.Instance {
		inst := treesched.NewInstance(512)
		for _, tr := range in.Trees {
			edges := make([][2]int, 0, tr.N()-1)
			for _, e := range tr.Edges() {
				edges = append(edges, [2]int{e.U, e.V})
			}
			if _, err := inst.AddTree(edges); err != nil {
				b.Fatal(err)
			}
		}
		for _, d := range in.Demands {
			inst.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...))
		}
		return inst
	}
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 1, Parallelism: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(build()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedProtocol measures the simnet execution end to end.
func BenchmarkDistributedProtocol(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 24, Trees: 2, Demands: 16, ProfitRatio: 4,
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
		if _, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistFleet measures the batched distributed runtime on fleet
// workloads (one accessible network per demand — the million-demand shape),
// reporting the protocol's message count and the resident private node
// state per demand alongside ns/op.
func BenchmarkDistFleet(b *testing.B) {
	for _, sz := range []struct{ trees, m int }{{8, 512}, {32, 2048}} {
		b.Run(fmt.Sprintf("m=%d", sz.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: 64, Trees: sz.trees, Demands: sz.m, ProfitRatio: 16,
				AccessMin: 1, AccessMax: 1,
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
			var last *dist.Result
			for i := 0; i < b.N; i++ {
				res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Stats.Messages), "messages/op")
			b.ReportMetric(float64(last.NodeStateBytes)/float64(last.Processors), "state-bytes/demand")
		})
	}
}

// BenchmarkAppendixA measures the sequential baseline.
func BenchmarkAppendixA(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 128, Trees: 2, Demands: 96, ProfitRatio: 16,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.AppendixA(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteForce measures the exact solver at its size limit.
func BenchmarkBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 16, Trees: 3, Demands: 9, ProfitRatio: 8,
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
		seq.Brute(items, true)
	}
}
