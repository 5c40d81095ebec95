package engine

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
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
	sameDual(t, tag, got, want)
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("%s: trace presence %v, want %v", tag, got.Trace != nil, want.Trace != nil)
	}
	if got.Trace != nil && !slices.Equal(got.Trace.Events, want.Trace.Events) {
		t.Fatalf("%s: trace diverged (%d events, want %d)", tag, len(got.Trace.Events), len(want.Trace.Events))
	}
}

// sameDual asserts that two results hold the same dual assignment: every
// nonzero α and β at the same external demand id and edge key, bit for
// bit. Value alone cannot see which slot a value landed in.
func sameDual(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	gd, wd := got.mergedDual(), want.mergedDual()
	if !maps.Equal(gd.AlphaMap(), wd.AlphaMap()) {
		t.Fatalf("%s: α diverged", tag)
	}
	if !maps.Equal(gd.BetaMap(), wd.BetaMap()) {
		t.Fatalf("%s: β diverged", tag)
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
					got, err := warm.Solve(cfg, w)
					if err != nil {
						t.Fatalf("mode %v seed %d round %d workers %d: %v", mode.mode, seed, round, w, err)
					}
					want, err := cold.Solve(cfg, w)
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

// counterTally is a Recorder that keeps only the counters.
type counterTally struct {
	mu     sync.Mutex
	counts [NumCounters]int64
}

func (*counterTally) StartSpan(Phase) int64 { return 0 }
func (*counterTally) EndSpan(Phase, int64)  {}
func (r *counterTally) Count(c Counter, n int64) {
	r.mu.Lock()
	r.counts[c] += n
	r.mu.Unlock()
}

// take returns counter c's count since the last take of it.
func (r *counterTally) take(c Counter) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.counts[c]
	r.counts[c] = 0
	return n
}

// TestWarmReplayCounters pins the exact accounting: first solve cold,
// steady-state repeat fully replayed, configuration change fully re-solved,
// and component-local churn replaying everything but the touched component.
// The greedy-work counter follows: a sharded solve tests the raised items
// of the shards it re-runs and nothing for replayed ones.
func TestWarmReplayCounters(t *testing.T) {
	pool := warmPoolItems(t, 5, 48, workload.UnitHeights)
	p := Prepare(reindex(pool[:40]))
	p.EnableWarmStart()
	tally := &counterTally{}
	p.SetRecorder(tally)
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 7}
	solve := func() *Result {
		t.Helper()
		res, err := p.Solve(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	greedyTests := func(step string, want int) {
		t.Helper()
		if got := tally.take(CounterGreedyTests); got != int64(want) {
			t.Fatalf("%s: %d greedy tests, want %d", step, got, want)
		}
	}

	res := solve()
	total := len(p.comps)
	if total < 2 {
		t.Fatalf("fleet instance decomposed into %d components; test needs several", total)
	}
	want := WarmStats{Enabled: true, ColdSolves: 1, ComponentsResolved: total}
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after first solve: %+v, want %+v", ws, want)
	}
	greedyTests("first solve", res.Raised)

	// Steady state: no churn, every component replays.
	solve()
	want.WarmSolves, want.ComponentsReplayed = 1, total
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after repeat solve: %+v, want %+v", ws, want)
	}
	greedyTests("repeat solve", 0)

	// Configuration change: the cache is keyed by the run fingerprint, so a
	// new seed re-solves everything.
	cfg.Seed = 8
	res = solve()
	want.ColdSolves++
	want.ComponentsResolved += total
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after seed change: %+v, want %+v", ws, want)
	}
	greedyTests("seed change", res.Raised)

	// Component-local churn: remove one item and re-submit it verbatim.
	// Equal-size churn keeps every other component's ids stable, so exactly
	// the victim's component re-runs.
	before := slices.Clone(p.shards)
	victim := p.items[0]
	if err := p.Apply(Delta{Remove: []int{0}, Add: []Item{victim}}); err != nil {
		t.Fatal(err)
	}
	res = solve()
	if len(p.comps) != total {
		t.Fatalf("re-submitting an item changed the decomposition: %d components, want %d", len(p.comps), total)
	}
	want.WarmSolves++
	want.ComponentsReplayed += total - 1
	want.ComponentsResolved++
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("after local churn: %+v, want %+v", ws, want)
	}
	rerun := 0
	for _, pre := range p.shards {
		if !slices.Contains(before, pre) {
			rerun += pre.out.raised
		}
	}
	if rerun == 0 || rerun == res.Raised {
		t.Fatalf("re-run shard raised %d of %d items; the churn must re-run one component", rerun, res.Raised)
	}
	greedyTests("local churn", rerun)
}

// TestWarmWorkCounters pins the component pass's and Apply's work
// counters exactly, and shows that they grow with the churn, not with the
// fleet: the same one-network churn on a 4-network and a 16-network fleet
// whose networks all hold the same content gives the same counts. The
// first sharded solve visits and relabels every item; a solve with no
// churn visits and relabels none; after the churn both count exactly the
// items of the churned components, those of the new decomposition that
// hold an arrival or are not components of the old one. Planning reads no
// item (plan_items) but on a round that departs the last holder of the
// highest profit, whose Apply reads every item once.
func TestWarmWorkCounters(t *testing.T) {
	const vertices, demands = 128, 24
	// Each network holds demands[:24]; three of the rest arrive on
	// network 0, under ids no network uses.
	one, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: vertices, Trees: 1, Demands: demands + 3, ProfitRatio: 8, MaxDist: 3,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	extra, err := BuildTreeItems(one, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := slices.Clone(extra[demands:])
	for i := range arrivals {
		arrivals[i].Demand = 1<<20 + i
	}
	remove := []int{0, 5, 10} // items of network 0; equal-size churn moves no survivor

	type work struct{ visited, relabeled, groups int64 }
	run := func(nets int) work {
		in := &model.Instance{NumVertices: vertices}
		for q := 0; q < nets; q++ {
			in.Trees = append(in.Trees, one.Trees[0])
			for _, d := range one.Demands[:demands] {
				d.ID, d.Access = len(in.Demands), []int{q}
				in.Demands = append(in.Demands, d)
			}
		}
		items, err := BuildTreeItems(in, IdealDecomp)
		if err != nil {
			t.Fatal(err)
		}
		p := Prepare(items)
		p.EnableWarmStart()
		tally := &counterTally{}
		p.SetRecorder(tally)
		cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 4}
		solve := func() {
			t.Helper()
			if _, err := p.Solve(cfg, 1); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step string, c Counter, want int64) int64 {
			t.Helper()
			if got := tally.take(c); got != want {
				t.Fatalf("%d networks, %s: %v %d, want %d", nets, step, c, got, want)
			}
			return want
		}

		solve()
		if len(p.shards) < nets {
			t.Fatalf("%d networks: %d shards", nets, len(p.shards))
		}
		check("first solve", CounterComponentItems, int64(len(items)))
		check("first solve", CounterRelabeledItems, int64(len(items)))
		check("first solve", CounterPlanItems, 0)
		solve()
		check("no churn", CounterComponentItems, 0)
		check("no churn", CounterRelabeledItems, 0)

		before := Prepare(reindex(p.items)).Components()
		if err := p.Apply(Delta{Remove: remove, Add: slices.Clone(arrivals)}); err != nil {
			t.Fatal(err)
		}
		groups := tally.take(CounterApplyGroups)
		if groups == 0 {
			t.Fatalf("%d networks: Apply patched no group", nets)
		}
		solve()
		after := Prepare(reindex(p.items)).Components()
		old := make(map[string]bool, len(before))
		for _, c := range before {
			old[fmt.Sprint(c)] = true
		}
		churned := int64(0)
		for _, c := range after {
			if !old[fmt.Sprint(c)] || slices.ContainsFunc(c, func(id int) bool { return slices.Contains(remove, id) }) {
				churned += int64(len(c))
			}
		}
		if churned == 0 || churned >= demands {
			t.Fatalf("%d networks: churned components hold %d of network 0's %d items", nets, churned, demands)
		}
		w := work{
			visited:   check("churn", CounterComponentItems, churned),
			relabeled: check("churn", CounterRelabeledItems, churned),
			groups:    groups,
		}
		// The churn left every extreme a holder, so planning read no item.
		check("churn", CounterPlanItems, 0)

		// Departing every holder of the highest profit, one per network,
		// leaves the profit range unknown to the plan statistics: Apply
		// reads every item once, and the solve none.
		pmax := slices.MaxFunc(p.items, func(a, b Item) int { return cmp.Compare(a.Profit, b.Profit) }).Profit
		var top []int
		for i := range p.items {
			if p.items[i].Profit == pmax {
				top = append(top, i)
			}
		}
		if err := p.Apply(Delta{Remove: top}); err != nil {
			t.Fatal(err)
		}
		check("max-profit departure", CounterPlanItems, int64(len(p.items)))
		solve()
		check("max-profit departure solve", CounterPlanItems, 0)
		return w
	}
	w4, w16 := run(4), run(16)
	if w4 != w16 {
		t.Fatalf("work grew with the fleet: 4 networks %+v, 16 networks %+v", w4, w16)
	}
	t.Logf("churn round on 4 and 16 networks: %+v", w4)
}

// TestWarmConcurrentSolves runs warm solves of one Prepared from several
// goroutines at once, after churn, so that they rebuild the shards, replay
// and record outcomes concurrently (run under -race in CI); every result
// must equal the cold one.
func TestWarmConcurrentSolves(t *testing.T) {
	pool := warmPoolItems(t, 2, 48, workload.UnitHeights)
	p := Prepare(reindex(pool[:40]))
	p.EnableWarmStart()
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 9, RecordTrace: true}
	if _, err := p.Solve(cfg, 2); err != nil {
		t.Fatal(err)
	}
	order := make([]int, 40)
	for i := range order {
		order[i] = i
	}
	applyRandomDelta(t, p, pool, order, rand.New(rand.NewSource(4)))
	want, err := Prepare(reindex(p.items)).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Solve(cfg, 1+g%3)
			if err != nil {
				t.Error(err)
			}
			results[g] = res
		}()
	}
	wg.Wait()
	for g, res := range results {
		if res != nil {
			sameResult(t, fmt.Sprintf("solve %d", g), res, want)
		}
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
			ID: i, Demand: i, Resource: 0, Group: 1 + i%2,
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
		got, err := warm.Solve(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Solve(cfg, 1)
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
// modes × traced/untraced runs, a cold Solve and a sharded one (the first
// solve of a warm-start cache, which runs every component) equal the
// serial Solve(cfg, 1) exactly.
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
					want, err := Prepare(slices.Clone(items)).Solve(cfg, 1)
					if err != nil {
						t.Fatalf("%v/%s/seed=%d serial: %v", mode, name, seed, err)
					}
					for _, w := range []int{1, 2, 3, 4, 8} {
						tag := fmt.Sprintf("%v/%s/seed=%d/trace=%v/w=%d", mode, name, seed, trace, w)
						cold, err := Prepare(slices.Clone(items)).Solve(cfg, w)
						if err != nil {
							t.Fatalf("%s cold: %v", tag, err)
						}
						sameResult(t, tag+" cold", cold, want)
						warm := Prepare(slices.Clone(items))
						warm.EnableWarmStart()
						shard, err := warm.Solve(cfg, w)
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
	f.Add(int64(1), []byte("0*0"), byte('W')) // an empty delta between sharded solves
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
			if _, err := p.Solve(cfg, warmW); err != nil {
				t.Fatal(err)
			}
		}
		cold := Prepare(reindex(p.items))
		for _, w := range workerAxis {
			got, err := p.Solve(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Solve(cfg, w)
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
