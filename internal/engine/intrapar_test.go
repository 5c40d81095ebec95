package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// The intra-component parallelism suite: at every worker count, every
// partitioned kernel, and every decomposition shape, the solve must be
// bitwise identical to the serial engine — selections, profit, λ, dual
// bound, counters and trace. The tuning knobs are lowered so the
// partitioned code paths actually run on instances small enough to sweep
// exhaustively, and on single-CPU hosts.

// SetIntraTuningForTest lowers the row-partitioning grain and lifts the
// host-parallelism lane clamp for the duration of a test, so multi-lane
// kernels run on small instances and 1-CPU hosts. Exported for the
// external engine_test package; restores the defaults on cleanup.
func SetIntraTuningForTest(tb testing.TB, grain, cap int) {
	tb.Helper()
	oldGrain, oldCap := intraGrain, intraLaneCap
	intraGrain, intraLaneCap = grain, cap
	tb.Cleanup(func() { intraGrain, intraLaneCap = oldGrain, oldCap })
}

func TestIntraPoolCoverage(t *testing.T) {
	SetIntraTuningForTest(t, 4, 16)
	for _, lanes := range []int{1, 2, 3, 5, 8} {
		pool := newIntraPool(lanes)
		for _, n := range []int{0, 1, 3, 7, 8, 9, 31, 64, 100} {
			visits := make([]int, n)
			pool.Run(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("lanes=%d n=%d: bad chunk [%d,%d)", lanes, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					visits[i]++ // chunks are disjoint, so no lane races this
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("lanes=%d n=%d: row %d visited %d times", lanes, n, i, v)
				}
			}
		}
		pool.close()
	}
}

func TestIntraLanes(t *testing.T) {
	SetIntraTuningForTest(t, 8, 4)
	for _, tc := range []struct {
		budget, rows, want int
	}{
		{1, 1000, 1}, // no budget, no pool
		{8, 1000, 4}, // clamped to the lane cap
		{3, 1000, 3}, // budget under the cap passes through
		{4, 15, 1},   // under 2×grain rows run inline
		{4, 16, 4},   // exactly 2×grain is enough to partition
		{0, 1000, 0}, // non-positive budgets are the caller's bug, stay ≤ 1
	} {
		got := intraLanes(tc.budget, tc.rows)
		if got != tc.want {
			t.Errorf("intraLanes(%d, %d) = %d, want %d", tc.budget, tc.rows, got, tc.want)
		}
		if newIntraPool(got) != nil && got <= 1 {
			t.Errorf("intraLanes(%d, %d) = %d spawned a pool for an inline budget", tc.budget, tc.rows, got)
		}
	}
}

// chainItems builds one large sparse conflict component: item i occupies
// edges {e_i, e_{i+1}}, so it conflicts exactly with its chain neighbors.
// The component is as large as the instance, but every MIS is ~half of the
// unsatisfied set — the shape that drives the raiseAll and greedy-step
// kernels past the partitioning grain (a dense component keeps its MIS and
// steps tiny, exercising only the λ fold).
func chainItems(n int, height float64) []Item {
	items := make([]Item, n)
	for i := range items {
		e := func(k int) model.EdgeKey { return model.MakeEdgeKey(0, graph.EdgeID(k)) }
		items[i] = Item{
			ID: i, Demand: i, Owner: i, Resource: 0, Group: 1 + i%2,
			Profit: 1 + float64(i%7), Height: height,
			Edges:    []model.EdgeKey{e(i), e(i + 1)},
			Critical: []model.EdgeKey{e(i)},
		}
	}
	return items
}

// intraParCases enumerates the decomposition shapes of the suite: a single
// sparse component (chain), a contended tree workload (few components), and
// a pinned fleet (many components, the two-level cost-model split).
func intraParCases(t *testing.T, mode Mode, seed int64) map[string][]Item {
	t.Helper()
	height := 1.0
	heights := workload.UnitHeights
	if mode == Narrow {
		height = 0.4
		heights = workload.NarrowHeights
	}
	treeIn, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 48, Trees: 2, Demands: 72, ProfitRatio: 8, Heights: heights,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTreeItems(treeIn, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]Item{
		"chain": chainItems(64, height),
		"tree":  tree,
		"fleet": warmPoolItems(t, seed, 48, heights),
	}
}

// TestIntraParallelMatchesSerial is the bitwise property: across worker
// counts {1,2,3,4,8} × seeds × unit/narrow modes × single/multi-component
// decompositions × traced/untraced runs, RunParallel equals the serial
// Prepared.Run exactly. Grain 4 and lane cap 8 force every partitioned
// kernel (raiseAll, greedy steps, λ fold) onto multiple lanes.
func TestIntraParallelMatchesSerial(t *testing.T) {
	SetIntraTuningForTest(t, 4, 8)
	for _, mode := range []Mode{Unit, Narrow} {
		for seed := int64(0); seed < 3; seed++ {
			for name, items := range intraParCases(t, mode, seed) {
				for _, trace := range []bool{false, true} {
					cfg := Config{Mode: mode, Epsilon: 0.1, Seed: seed, RecordTrace: trace}
					want, err := Prepare(slices.Clone(items)).Run(cfg)
					if err != nil {
						t.Fatalf("%v/%s/seed=%d serial: %v", mode, name, seed, err)
					}
					for _, w := range []int{1, 2, 3, 4, 8} {
						p := Prepare(slices.Clone(items))
						got, err := p.RunParallel(cfg, w)
						if err != nil {
							t.Fatalf("%v/%s/seed=%d w=%d: %v", mode, name, seed, w, err)
						}
						sameResult(t, fmt.Sprintf("%v/%s/seed=%d/trace=%v/w=%d", mode, name, seed, trace, w), got, want)
					}
				}
			}
		}
	}
}

// TestIntraParallelWarmReplay pins the warm-replay interaction: outcomes
// cached by a solve at one worker count must replay bitwise for solves at
// any other worker count — the lane split may not leak into the cache.
func TestIntraParallelWarmReplay(t *testing.T) {
	SetIntraTuningForTest(t, 4, 8)
	items := warmPoolItems(t, 11, 48, workload.UnitHeights)
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 11, RecordTrace: true}
	want, err := Prepare(slices.Clone(items)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := Prepare(slices.Clone(items))
	warm.EnableWarmStart()
	for i, w := range []int{8, 1, 3, 2, 4} {
		got, err := warm.RunParallel(cfg, w)
		if err != nil {
			t.Fatalf("solve %d (w=%d): %v", i, w, err)
		}
		sameResult(t, fmt.Sprintf("warm solve %d (w=%d)", i, w), got, want)
	}
	ws := warm.WarmStats()
	if ws.ColdSolves != 1 || ws.WarmSolves != 4 {
		t.Fatalf("worker-count changes broke replay: %+v", ws)
	}
}

// TestIntraKernelsExercised guards the suite itself: with the test tuning,
// the chain instance must actually run multi-lane kernels — otherwise the
// bitwise assertions above would vacuously compare serial to serial.
func TestIntraKernelsExercised(t *testing.T) {
	SetIntraTuningForTest(t, 4, 8)
	items := chainItems(64, 1)
	p := Prepare(slices.Clone(items))
	plan, err := PlanFor(p.items, &Config{Mode: Unit, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lanes := intraLanes(8, len(p.items)); lanes != 8 {
		t.Fatalf("chain instance resolves %d lanes under test tuning, want 8", lanes)
	}
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 1}
	if _, err := p.runSerial(cfg, plan, 8); err != nil {
		t.Fatal(err)
	}
}

// twoChains is two disjoint chain components of n items each, on networks
// 0 and 1.
func twoChains(n int) []Item {
	items := append(chainItems(n, 1), chainItems(n, 1)...)
	for i := n; i < 2*n; i++ {
		it := &items[i]
		it.ID, it.Demand, it.Owner, it.Resource = i, i, i, 1
		it.Edges = []model.EdgeKey{model.MakeEdgeKey(1, it.Edges[0].Edge()), model.MakeEdgeKey(1, it.Edges[1].Edge())}
		it.Critical = it.Edges[:1:1]
	}
	return items
}

// laneRecorder sums the counters of a run; shard workers may emit spans
// concurrently, so it locks.
type laneRecorder struct {
	mu     sync.Mutex
	counts [NumCounters]int64
}

func (r *laneRecorder) StartSpan(Phase) int64 { return 0 }
func (r *laneRecorder) EndSpan(Phase, int64)  {}
func (r *laneRecorder) Count(c Counter, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[c] += n
}

// TestShardLanesSizedByRunnableShards pins how the sharded pipeline sizes
// its lanes: by the largest shard it runs, not by the whole instance. Two
// 100-item components fill the default 2×grain (128 rows) only together,
// so at workers 8 — two shard workers with an intra budget of 4 each, the
// lane cap lifted to 8 — no shard can be partitioned: the solve must count
// one lane, spawn no pool, and still equal the serial engine.
func TestShardLanesSizedByRunnableShards(t *testing.T) {
	SetIntraTuningForTest(t, 64, 8)
	items := twoChains(100)
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 3}
	want, err := Prepare(slices.Clone(items)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := Prepare(slices.Clone(items))
	rec := &laneRecorder{}
	p.SetRecorder(rec)
	got, err := p.RunParallel(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "two chains, w=8", got, want)
	if n := len(p.Components()); n != 2 {
		t.Fatalf("%d components, want 2", n)
	}
	if w := rec.counts[CounterShardWorkers]; w != 2 {
		t.Fatalf("shard workers %d, want 2", w)
	}
	lanes := int(rec.counts[CounterIntraLanes])
	if lanes != 1 {
		t.Fatalf("intra lanes %d, want 1: no shard reaches 2×grain rows", lanes)
	}
	if newIntraPool(lanes) != nil {
		t.Fatal("one lane spawned a pool")
	}
}
