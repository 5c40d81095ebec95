package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/workload"
)

// shardedCases are the instance shapes the determinism suite sweeps: a
// fragmented multi-network workload (each demand pinned to one of several
// networks, so the conflict graph splits into many components) and a
// contended single-pool workload (one giant component, where the sharded
// pipeline falls back to the serial engine).
func shardedCases(t *testing.T, mode engine.Mode, seed int64) map[string][]engine.Item {
	t.Helper()
	heights := workload.UnitHeights
	if mode == engine.Narrow {
		heights = workload.NarrowHeights
	}
	return map[string][]engine.Item{
		"fragmented": treeItems(t, workload.TreeConfig{
			Vertices: 48, Trees: 6, Demands: 60, ProfitRatio: 16,
			Heights: heights, AccessMin: 1, AccessMax: 1,
		}, seed),
		"giant": treeItems(t, workload.TreeConfig{
			Vertices: 32, Trees: 2, Demands: 40, ProfitRatio: 8,
			Heights: heights,
		}, seed),
	}
}

// sharded returns a fresh Prepared over items that solves through the
// sharded pipeline, with rec (nil for none) attached. Cold solves run the
// serial engine at every worker count; only the warm-start cache shards,
// and a fresh cache has nothing to replay, so the first solve runs every
// component's schedule.
func sharded(items []engine.Item, rec engine.Recorder) *engine.Prepared {
	p := engine.Prepare(items)
	p.EnableWarmStart()
	p.SetRecorder(rec)
	return p
}

// TestRunParallelBitIdentical is the determinism suite of the sharded
// pipeline: across seeds × modes × worker counts, a sharded solve must
// reproduce the serial Run bit for bit — selections, profit, dual bound,
// λ, the full dual assignment, every schedule counter, and the raise
// trace. The fragmented case must really shard.
func TestRunParallelBitIdentical(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for seed := int64(0); seed < 10; seed++ {
			for name, items := range shardedCases(t, mode, seed) {
				cfg := engine.Config{Mode: mode, Epsilon: 0.1, Seed: seed, RecordTrace: true}
				serial, err := engine.Run(items, cfg)
				if err != nil {
					t.Fatalf("%v/%s seed %d: serial: %v", mode, name, seed, err)
				}
				for _, workers := range []int{1, 2, 3, 4, 8} {
					tag := fmt.Sprintf("%v/%s seed %d p=%d", mode, name, seed, workers)
					rec := newCountingRecorder()
					par, err := sharded(items, rec).RunParallel(cfg, workers)
					if err != nil {
						t.Fatalf("%s: sharded: %v", tag, err)
					}
					if name == "fragmented" && rec.started[engine.PhaseShardSolve] == 0 {
						t.Fatalf("%s: the sharded pipeline did not run", tag)
					}
					if !reflect.DeepEqual(par.Selected, serial.Selected) {
						t.Errorf("%s: selected %v != serial %v", tag, par.Selected, serial.Selected)
					}
					if par.Profit != serial.Profit {
						t.Errorf("%s: profit %v != serial %v", tag, par.Profit, serial.Profit)
					}
					if par.Bound != serial.Bound {
						t.Errorf("%s: bound %v != serial %v", tag, par.Bound, serial.Bound)
					}
					if par.Lambda != serial.Lambda {
						t.Errorf("%s: lambda %v != serial %v", tag, par.Lambda, serial.Lambda)
					}
					if !reflect.DeepEqual(par.Dual.AlphaMap(), serial.Dual.AlphaMap()) || !reflect.DeepEqual(par.Dual.BetaMap(), serial.Dual.BetaMap()) {
						t.Errorf("%s: dual assignment diverged", tag)
					}
					if par.Steps != serial.Steps || par.MISIters != serial.MISIters ||
						par.Raised != serial.Raised || par.MaxStageSteps != serial.MaxStageSteps ||
						par.Epochs != serial.Epochs || par.Stages != serial.Stages ||
						par.CommRounds != serial.CommRounds || par.Delta != serial.Delta {
						t.Errorf("%s: counters diverged: par %+v serial %+v", tag, par, serial)
					}
					if !reflect.DeepEqual(par.Trace, serial.Trace) {
						t.Errorf("%s: raise trace diverged", tag)
					}
				}
			}
		}
	}
}

// TestRunArbitraryParallelBitIdentical covers the §6 wide/narrow split
// under the sharded pipeline with mixed heights: each height class shards
// over its fleet of components and the combination equals the serial one.
func TestRunArbitraryParallelBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 40, Trees: 4, Demands: 48, ProfitRatio: 8,
			Heights: workload.MixedHeights, AccessMin: 1, AccessMax: 1,
		}, seed)
		cfg := engine.Config{Epsilon: 0.1, Seed: seed}
		serial, err := engine.RunArbitrary(items, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{1, 4, 8} {
			ap := engine.PrepareArbitrary(items)
			ap.EnableWarmStartForTest()
			rec := newCountingRecorder()
			ap.SetRecorder(rec)
			par, err := ap.RunParallel(cfg, workers)
			if err != nil {
				t.Fatalf("seed %d p=%d: %v", seed, workers, err)
			}
			if rec.started[engine.PhaseShardSolve] == 0 {
				t.Fatalf("seed %d p=%d: the sharded pipeline did not run", seed, workers)
			}
			if !reflect.DeepEqual(par.Selected, serial.Selected) || par.Profit != serial.Profit || par.Bound != serial.Bound {
				t.Errorf("seed %d p=%d: diverged: profit %v vs %v", seed, workers, par.Profit, serial.Profit)
			}
		}
	}
}

// TestConflictComponents checks the component decomposition the engine
// derives from its member lists against the components of the definitional
// adjacency oracle: the same partition, ascending members, components
// ordered by smallest member.
func TestConflictComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		cfg := workload.TreeConfig{
			Vertices: 12 + rng.Intn(30), Trees: 1 + rng.Intn(5),
			Demands: 5 + rng.Intn(40), ProfitRatio: 4,
			AccessMin: 1, AccessMax: 1 + rng.Intn(3),
		}
		items := treeItems(t, cfg, int64(trial))
		got := engine.Prepare(items).Components()
		want := oracleComponents(definitionalConflicts(items))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, oracle %v", trial, got, want)
		}
	}
}

// definitionalConflicts is the test oracle of the conflict graph: the §2
// definition applied to every pair — two items conflict iff they share a
// demand or an edge. Rows ascending.
func definitionalConflicts(items []engine.Item) [][]int {
	adj := make([][]int, len(items))
	for a := range items {
		for b := range items {
			if a != b && conflicting(&items[a], &items[b]) {
				adj[a] = append(adj[a], b)
			}
		}
	}
	return adj
}

func conflicting(a, b *engine.Item) bool {
	if a.Demand == b.Demand {
		return true
	}
	for _, e := range a.Edges {
		if slices.Contains(b.Edges, e) {
			return true
		}
	}
	return false
}

// oracleComponents is a plain depth-first decomposition of an adjacency:
// ascending members, components ordered by smallest member.
func oracleComponents(adj [][]int) [][]int {
	seen := make([]bool, len(adj))
	var out [][]int
	for v := range adj {
		if seen[v] {
			continue
		}
		seen[v] = true
		comp, stack := []int{v}, []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[x] {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, w)
					stack = append(stack, w)
				}
			}
		}
		slices.Sort(comp)
		out = append(out, comp)
	}
	return out
}
