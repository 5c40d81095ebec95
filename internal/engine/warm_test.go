package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// The warm-start suite: with EnableWarmStart, any interleaving of Apply
// churn and solves must produce results bitwise identical to a fresh
// Prepare over the same items — including the trace — while the counters
// account for every solve and every per-component replay exactly.

// warmPoolItems builds a fleet-shaped pool (demands pinned to single
// networks, so prepared sets decompose into many conflict components — the
// workload warm starts exist for).
func warmPoolItems(t testing.TB, seed int64, demands int, heights workload.HeightMix) []Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 64, Trees: 8, Demands: demands, ProfitRatio: 8,
		AccessMin: 1, AccessMax: 1, Heights: heights,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := BuildTreeItems(in, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// sameResult asserts bitwise-equal run outcomes, trace included.
func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Selected, want.Selected) {
		t.Fatalf("%s: selected %v, want %v", tag, got.Selected, want.Selected)
	}
	if got.Profit != want.Profit || got.Lambda != want.Lambda || got.Bound != want.Bound {
		t.Fatalf("%s: profit/λ/bound (%v,%v,%v), want (%v,%v,%v)",
			tag, got.Profit, got.Lambda, got.Bound, want.Profit, want.Lambda, want.Bound)
	}
	if got.Steps != want.Steps || got.MISIters != want.MISIters || got.Raised != want.Raised ||
		got.MaxStageSteps != want.MaxStageSteps || got.CommRounds != want.CommRounds {
		t.Fatalf("%s: schedule counters (%d,%d,%d,%d,%d), want (%d,%d,%d,%d,%d)",
			tag, got.Steps, got.MISIters, got.Raised, got.MaxStageSteps, got.CommRounds,
			want.Steps, want.MISIters, want.Raised, want.MaxStageSteps, want.CommRounds)
	}
	if gv, wv := got.Dual.Value(), want.Dual.Value(); gv != wv {
		t.Fatalf("%s: dual value %v, want %v", tag, gv, wv)
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("%s: trace presence %v, want %v", tag, got.Trace != nil, want.Trace != nil)
	}
	if got.Trace != nil && !slices.Equal(got.Trace.Events, want.Trace.Events) {
		t.Fatalf("%s: trace diverged (%d events, want %d)", tag, len(got.Trace.Events), len(want.Trace.Events))
	}
}

// TestWarmSolveMatchesCold drives multi-round churn sequences over a
// warm-started Prepared and asserts every solve — across seeds, worker
// counts and unit/narrow modes — is bitwise identical to a from-scratch
// cold solve over the same items.
func TestWarmSolveMatchesCold(t *testing.T) {
	for _, mode := range []struct {
		mode    Mode
		heights workload.HeightMix
	}{{Unit, workload.UnitHeights}, {Narrow, workload.NarrowHeights}} {
		for seed := int64(0); seed < 3; seed++ {
			pool := warmPoolItems(t, seed, 56, mode.heights)
			start := len(pool) * 2 / 3
			warm := Prepare(reindex(pool[:start]))
			warm.EnableWarmStart()
			order := make([]int, start)
			for i := range order {
				order[i] = i
			}
			rng := rand.New(rand.NewSource(seed*977 + int64(mode.mode)))
			for round := 0; round < 6; round++ {
				order = applyRandomDelta(t, warm, pool, order, rng)
				cold := Prepare(reindex(warm.items))
				cfg := Config{Mode: mode.mode, Epsilon: 0.1, Seed: seed, RecordTrace: true}
				for _, w := range []int{1, 2, 4} {
					got, err := warm.RunParallel(cfg, w)
					if err != nil {
						t.Fatalf("mode %v seed %d round %d workers %d: %v", mode.mode, seed, round, w, err)
					}
					want, err := cold.RunParallel(cfg, w)
					if err != nil {
						t.Fatalf("mode %v seed %d round %d workers %d cold: %v", mode.mode, seed, round, w, err)
					}
					sameResult(t, mode.mode.String(), got, want)
				}
			}
			ws := warm.WarmStats()
			if !ws.Enabled {
				t.Fatal("warm cache not enabled")
			}
			if ws.WarmSolves+ws.ColdSolves != 6*3 {
				t.Fatalf("solves unaccounted: warm %d + cold %d != %d", ws.WarmSolves, ws.ColdSolves, 6*3)
			}
			if ws.ComponentsReplayed == 0 {
				t.Fatalf("churn sequence never replayed a component: %+v", ws)
			}
		}
	}
}

// TestWarmReplayCounters pins the exact accounting: first solve cold,
// steady-state repeat fully replayed, configuration change fully re-solved,
// and component-local churn replaying everything but the touched component.
func TestWarmReplayCounters(t *testing.T) {
	pool := warmPoolItems(t, 5, 48, workload.UnitHeights)
	p := Prepare(reindex(pool[:40]))
	p.EnableWarmStart()
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 7}
	solve := func() {
		t.Helper()
		if _, err := p.RunParallel(cfg, 4); err != nil {
			t.Fatal(err)
		}
	}

	solve()
	total := len(p.comps)
	if total < 2 {
		t.Fatalf("fleet instance decomposed into %d components; test needs several", total)
	}
	want := WarmStats{Enabled: true, ColdSolves: 1, ComponentsResolved: total}
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after first solve: %+v, want %+v", ws, want)
	}

	// Steady state: no churn, every component replays.
	solve()
	want.WarmSolves, want.ComponentsReplayed = 1, total
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after repeat solve: %+v, want %+v", ws, want)
	}

	// Configuration change: the cache is keyed by the run fingerprint, so a
	// new seed re-solves everything.
	cfg.Seed = 8
	solve()
	want.ColdSolves++
	want.ComponentsResolved += total
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after seed change: %+v, want %+v", ws, want)
	}

	// Component-local churn: remove one item and re-submit it verbatim.
	// Equal-size churn keeps every other component's ids stable, so exactly
	// the victim's component re-runs.
	victim := p.items[0]
	if err := p.Apply(Delta{Remove: []int{0}, Add: []Item{victim}}); err != nil {
		t.Fatal(err)
	}
	solve()
	if len(p.comps) != total {
		t.Fatalf("re-submitting an item changed the decomposition: %d components, want %d", len(p.comps), total)
	}
	want.WarmSolves++
	want.ComponentsReplayed += total - 1
	want.ComponentsResolved++
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after local churn: %+v, want %+v", ws, want)
	}
}

// TestWarmSingleComponentSerial checks the serial bypass: on an instance
// that is one conflict component, a warm-enabled Prepared at one worker
// must keep running the serial engine (sharding cannot help), count those
// solves as cold, and stay bitwise identical to a cold Prepared.
func TestWarmSingleComponentSerial(t *testing.T) {
	// Synthetic single component: every item crosses one shared edge.
	shared := model.MakeEdgeKey(0, graph.EdgeID(1000))
	items := make([]Item, 16)
	for i := range items {
		own := model.MakeEdgeKey(0, graph.EdgeID(i))
		items[i] = Item{
			ID: i, Demand: i, Owner: i, Resource: 0, Group: 1 + i%2,
			Profit: 1 + float64(i%5), Height: 1,
			Edges:    []model.EdgeKey{shared, own},
			Critical: []model.EdgeKey{shared},
		}
	}
	warm := Prepare(slices.Clone(items))
	warm.EnableWarmStart()
	cold := Prepare(slices.Clone(items))
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 3, RecordTrace: true}
	for i := 0; i < 3; i++ {
		got, err := warm.RunParallel(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.RunParallel(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "serial", got, want)
	}
	want := WarmStats{Enabled: true, ColdSolves: 3}
	if ws := warm.WarmStats(); ws != want {
		t.Fatalf("serial bypass accounting: %+v, want %+v", ws, want)
	}
}

// TestIntraParallelMatchesSerial is the bitwise property over every
// decomposition shape — one sparse component as large as the instance
// (chain), a contended tree workload (few components) and a fleet (many
// components): across worker counts {1,2,3,4,8} × seeds × unit/narrow
// modes × traced/untraced runs, a cold RunParallel and a sharded one (the
// first solve of a warm-start cache, which runs every component) equal the
// serial Prepared.Run exactly.
func TestIntraParallelMatchesSerial(t *testing.T) {
	for _, mode := range []Mode{Unit, Narrow} {
		height, heights := 1.0, workload.UnitHeights
		if mode == Narrow {
			height, heights = 0.4, workload.NarrowHeights
		}
		for seed := int64(0); seed < 3; seed++ {
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
			shapes := map[string][]Item{
				"chain": chainItems(64, height),
				"tree":  tree,
				"fleet": warmPoolItems(t, seed, 48, heights),
			}
			for name, items := range shapes {
				for _, trace := range []bool{false, true} {
					cfg := Config{Mode: mode, Epsilon: 0.1, Seed: seed, RecordTrace: trace}
					want, err := Prepare(slices.Clone(items)).Run(cfg)
					if err != nil {
						t.Fatalf("%v/%s/seed=%d serial: %v", mode, name, seed, err)
					}
					for _, w := range []int{1, 2, 3, 4, 8} {
						tag := fmt.Sprintf("%v/%s/seed=%d/trace=%v/w=%d", mode, name, seed, trace, w)
						cold, err := Prepare(slices.Clone(items)).RunParallel(cfg, w)
						if err != nil {
							t.Fatalf("%s cold: %v", tag, err)
						}
						sameResult(t, tag+" cold", cold, want)
						warm := Prepare(slices.Clone(items))
						warm.EnableWarmStart()
						shard, err := warm.RunParallel(cfg, w)
						if err != nil {
							t.Fatalf("%s sharded: %v", tag, err)
						}
						if name == "fleet" && len(warm.comps) <= 1 {
							t.Fatalf("%s: the fleet did not shard", tag)
						}
						sameResult(t, tag+" sharded", shard, want)
					}
				}
			}
		}
	}
}

// FuzzWarmChurn fuzzes churn schedules against the warm cache: after an
// arbitrary Apply sequence with interleaved warm solves, the final solve
// must match a from-scratch preparation bitwise at several worker counts.
// The fuzzed worker axis picks which worker count runs the interleaved
// solves — and, with it, how many shard workers run — so the cache is
// populated under one worker count and replayed under the others.
func FuzzWarmChurn(f *testing.F) {
	f.Add(int64(1), []byte{0x03, 0x51, 0xa0}, byte(1))
	f.Add(int64(7), []byte{0xff, 0x00, 0x42, 0x19}, byte(4))
	f.Fuzz(func(t *testing.T, seed int64, steps []byte, widx byte) {
		workerAxis := []int{1, 2, 3, 4, 8}
		warmW := workerAxis[int(widx)%len(workerAxis)]
		if len(steps) > 5 {
			steps = steps[:5]
		}
		pool := warmPoolItems(t, seed%8, 32, workload.UnitHeights)
		start := len(pool) / 2
		p := Prepare(reindex(pool[:start]))
		p.EnableWarmStart()
		order := make([]int, start)
		for i := range order {
			order[i] = i
		}
		cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: seed, RecordTrace: true}
		for _, b := range steps {
			rng := rand.New(rand.NewSource(int64(b)*131 + seed))
			order = applyRandomDelta(t, p, pool, order, rng)
			// Interleaved warm solve: populates (and replays) the cache so
			// the final comparison below exercises a genuinely warm state.
			if _, err := p.RunParallel(cfg, warmW); err != nil {
				t.Fatal(err)
			}
		}
		cold := Prepare(reindex(p.items))
		for _, w := range workerAxis {
			got, err := p.RunParallel(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.RunParallel(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "fuzz", got, want)
		}
		ws := p.WarmStats()
		if ws.WarmSolves+ws.ColdSolves != len(steps)+len(workerAxis) {
			t.Fatalf("solves unaccounted: %+v after %d solves", ws, len(steps)+len(workerAxis))
		}
	})
}
