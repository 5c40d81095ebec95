package engine

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treesched/internal/dual"
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

// sameResult asserts bitwise-equal run outcomes, trace included. The
// schedule statistics are compared through mergedSchedule, and a sharded
// Result must hold them itself exactly when it was traced.
func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Selected, want.Selected) {
		t.Fatalf("%s: selected %v, want %v", tag, got.Selected, want.Selected)
	}
	if got.Profit != want.Profit || got.Lambda != want.Lambda || got.Bound != want.Bound {
		t.Fatalf("%s: profit/λ/bound (%v,%v,%v), want (%v,%v,%v)",
			tag, got.Profit, got.Lambda, got.Bound, want.Profit, want.Lambda, want.Bound)
	}
	gs, gi, gt := got.mergedSchedule()
	ws, wi, wt := want.mergedSchedule()
	if gs != ws || gi != wi || got.Raised != want.Raised || got.MaxStageSteps != want.MaxStageSteps {
		t.Fatalf("%s: schedule counters (%d,%d,%d,%d), want (%d,%d,%d,%d)",
			tag, gs, gi, got.Raised, got.MaxStageSteps, ws, wi, want.Raised, want.MaxStageSteps)
	}
	// A serial solve reports its schedule statistics, a sharded one only
	// when traced.
	if got.shards == nil || got.Trace != nil {
		if got.Steps != gs || got.MISIters != gi {
			t.Fatalf("%s: Result holds Steps/MISIters (%d,%d), merged (%d,%d)", tag, got.Steps, got.MISIters, gs, gi)
		}
	} else if got.Steps != 0 || got.MISIters != 0 {
		t.Fatalf("%s: an untraced sharded solve reports Steps/MISIters (%d,%d)", tag, got.Steps, got.MISIters)
	}
	sameDual(t, tag, got, want)
	if (got.Trace == nil) != (want.Trace == nil) || (gt == nil) != (wt == nil) {
		t.Fatalf("%s: trace presence %v, want %v", tag, got.Trace != nil, want.Trace != nil)
	}
	if gt != nil && (!slices.Equal(gt.Events, wt.Events) || !slices.Equal(got.Trace.Events, gt.Events)) {
		t.Fatalf("%s: trace diverged (%d events, want %d)", tag, len(gt.Events), len(wt.Events))
	}
}

// checkExactProfit asserts that res.Profit is, bit for bit, the exact sum
// of the profits of res.Selected, rounded once.
func checkExactProfit(t *testing.T, tag string, items []Item, res *Result) {
	t.Helper()
	var s dual.Sum
	for _, id := range res.Selected {
		s.Add(items[id].Profit)
	}
	if want := s.Round(); math.Float64bits(res.Profit) != math.Float64bits(want) {
		t.Fatalf("%s: profit %v, exact sum of the selection %v", tag, res.Profit, want)
	}
}

// sameDual asserts that two results hold the same dual assignment: every
// nonzero α and β at the same external demand id and edge key, bit for
// bit. Value alone cannot see which slot a value landed in.
func sameDual(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	gd, wd := got.Dual, want.Dual
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
				checkOwners(t, warm)
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
	total := len(p.shards)
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
	if len(p.shards) != total {
		t.Fatalf("re-submitting an item changed the decomposition: %d components, want %d", len(p.shards), total)
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

// TestWarmReplayAcrossStepCap moves the Lemma 5.1 step cap without moving
// ∆ or ξ: an arrival whose profit widens the profit range past a cap
// boundary re-runs only the components it reaches, and its departure,
// which narrows the range back, only its own old component, since every
// kept outcome's stages ended below either cap. Both solves equal a cold
// solve. An outcome whose stages reached the cap does not replay.
func TestWarmReplayAcrossStepCap(t *testing.T) {
	pool := warmPoolItems(t, 3, 48, workload.UnitHeights)
	p := Prepare(reindex(pool[:40]))
	p.EnableWarmStart()
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 5}
	planOf := func() *Plan {
		t.Helper()
		plan := new(Plan)
		if err := p.plan(cfg, plan); err != nil {
			t.Fatal(err)
		}
		return plan
	}
	// solve solves warm and cold, and returns the components the warm
	// solve replayed and re-ran.
	solve := func(step string) (replayed, resolved int) {
		t.Helper()
		before := p.WarmStats()
		got, err := p.Solve(cfg, 2)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := Prepare(reindex(p.items)).Solve(cfg, 1)
		if err != nil {
			t.Fatalf("%s cold: %v", step, err)
		}
		sameResult(t, step, got, want)
		after := p.WarmStats()
		return after.ComponentsReplayed - before.ComponentsReplayed, after.ComponentsResolved - before.ComponentsResolved
	}
	components := func() []string {
		var cs []string
		for _, c := range Prepare(reindex(p.items)).Components() {
			cs = append(cs, fmt.Sprint(c))
		}
		return cs
	}
	// touched counts the components of now that were not components of
	// then.
	touched := func(then, now []string) int {
		n := 0
		for _, c := range now {
			if !slices.Contains(then, c) {
				n++
			}
		}
		return n
	}

	solve("first solve")
	plan0 := planOf()
	// An arrival of a new demand whose critical set is no larger than ∆,
	// with four times the highest profit: ∆, and so ξ, stay, and the cap
	// grows.
	i := slices.IndexFunc(pool[40:], func(it Item) bool { return len(it.Critical) <= plan0.Delta })
	if i < 0 {
		t.Fatal("no arrival keeps ∆")
	}
	arrival := pool[40+i]
	arrival.Profit = 4 * plan0.PMax
	then := components()
	if err := p.Apply(Delta{Add: []Item{arrival}}); err != nil {
		t.Fatal(err)
	}
	plan1 := planOf()
	if plan1.Delta != plan0.Delta || plan1.Xi != plan0.Xi || plan1.StepCap <= plan0.StepCap {
		t.Fatalf("arrival moved ∆ %d→%d, ξ %v→%v, step cap %d→%d; want only the cap to grow",
			plan0.Delta, plan1.Delta, plan0.Xi, plan1.Xi, plan0.StepCap, plan1.StepCap)
	}
	now := components()
	k := touched(then, now)
	if replayed, resolved := solve("arrival"); resolved != k || replayed != len(now)-k || replayed == 0 {
		t.Fatalf("arrival: replayed %d and re-ran %d of %d components, want to re-run the %d it touched",
			replayed, resolved, len(now), k)
	}

	// Its departure lowers the cap again.
	last := len(p.items) - 1
	if p.items[last].Demand != arrival.Demand {
		t.Fatalf("the arrival is not the last item")
	}
	then = now
	if err := p.Apply(Delta{Remove: []int{last}}); err != nil {
		t.Fatal(err)
	}
	if plan2 := planOf(); plan2.StepCap != plan0.StepCap {
		t.Fatalf("departure left step cap %d, want %d", plan2.StepCap, plan0.StepCap)
	}
	now = components()
	k = touched(then, now)
	if replayed, resolved := solve("departure"); resolved != k || replayed != len(now)-k || replayed == 0 {
		t.Fatalf("departure: replayed %d and re-ran %d of %d components, want to re-run the %d it touched",
			replayed, resolved, len(now), k)
	}

	// A cap at a kept outcome's stage length leaves it to re-run.
	key := warmKeyFor(cfg, plan0)
	outs := make([]*shardOut, len(p.shards))
	full := p.warm.replay(key, plan0.StepCap, p.shards, outs)
	if full != len(p.shards) {
		t.Fatalf("replayed %d of %d kept outcomes under the same key and cap", full, len(p.shards))
	}
	top := slices.MaxFunc(outs, func(a, b *shardOut) int { return a.maxStageSteps - b.maxStageSteps }).maxStageSteps
	clear(outs)
	if n := p.warm.replay(key, top, p.shards, outs); n >= full || slices.ContainsFunc(outs, func(o *shardOut) bool {
		return o != nil && o.maxStageSteps >= top
	}) {
		t.Fatalf("cap %d replayed %d outcomes, one of them at the cap", top, n)
	}
}

// TestWarmWorkCounters pins the component pass's and Apply's work
// counters exactly, and shows that they grow with the churn, not with the
// fleet: the same one-network churn on a 4-network and a 16-network fleet
// whose networks all hold the same content gives the same counts. The
// first sharded solve's component pass visits every item; a solve with no
// churn visits none; after the churn it visits exactly the items of the
// churned components, those of the new decomposition that hold an arrival
// or are not components of the old one. Planning reads no
// item (plan_items) but on a round that departs the last holder of the
// highest profit, whose Apply reads every item once. The merge folds
// every outcome into its totals on the first solve, none with no churn,
// and after the churn the outcomes of the re-run shards in and those of
// the shards they replaced out (merge_outcomes).
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

	type work struct{ visited, groups, folds int64 }
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
		check("first solve", CounterPlanItems, 0)
		check("first solve", CounterMergeOutcomes, int64(len(p.shards)))
		solve()
		check("no churn", CounterComponentItems, 0)
		check("no churn", CounterMergeOutcomes, 0)

		before := Prepare(reindex(p.items)).Components()
		shardsBefore := slices.Clone(p.shards)
		if err := p.Apply(Delta{Remove: remove, Add: slices.Clone(arrivals)}); err != nil {
			t.Fatal(err)
		}
		groups := tally.take(CounterApplyGroups)
		if groups == 0 {
			t.Fatalf("%d networks: Apply patched no group", nets)
		}
		tally.take(CounterComponentsResolved)
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
		replaced := 0
		for _, sh := range shardsBefore {
			if !slices.Contains(p.shards, sh) {
				replaced++
			}
		}
		rerun := tally.take(CounterComponentsResolved)
		if rerun == 0 || replaced == 0 {
			t.Fatalf("%d networks: the churn re-ran %d shards and replaced %d", nets, rerun, replaced)
		}
		w := work{
			visited: check("churn", CounterComponentItems, churned),
			groups:  groups,
			folds:   check("churn", CounterMergeOutcomes, rerun+int64(replaced)),
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
// goroutines at once, after churn, so that they refresh the shard table,
// replay and record outcomes concurrently, with WarmStats, Components and
// ItemsOfDemand read beside them (run under -race in CI); every result
// must equal the cold one, and every read what the Prepared holds.
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
	cold := Prepare(reindex(p.items))
	want, err := cold.Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantComps := cold.Components()
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
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ws := p.WarmStats(); ws.WarmSolves+ws.ColdSolves > 1+len(results) {
				t.Errorf("reader %d: %+v counts more solves than ran", g, ws)
			}
			if got := p.Components(); !slices.EqualFunc(got, wantComps, slices.Equal) {
				t.Errorf("reader %d: components %v, want %v", g, got, wantComps)
			}
			for i := range p.items {
				if !slices.Contains(p.ItemsOfDemand(p.items[i].Demand), int32(i)) {
					t.Errorf("reader %d: item %d is not among its demand's items", g, i)
				}
			}
		}()
	}
	wg.Wait()
	for g, res := range results {
		if res != nil {
			sameResult(t, fmt.Sprintf("solve %d", g), res, want)
		}
	}
	if ws := p.WarmStats(); ws.WarmSolves+ws.ColdSolves != 1+len(results) {
		t.Fatalf("solves unaccounted: %+v after %d solves", ws, 1+len(results))
	}
}

// TestWarmSingleComponentSerial checks the serial bypass: on an instance
// that is one conflict component, a warm-enabled Prepared at one worker
// must keep running the serial engine (sharding cannot help), count those
// solves as cold, and stay bitwise identical to a cold Prepared.
func TestWarmSingleComponentSerial(t *testing.T) {
	items := reindex(clusterItems(0, 0, 16))
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

// clusterItems returns n items on network net, of demands first to
// first+n-1, which all cross the network's edge 0 and so make one
// conflict component.
func clusterItems(net, first, n int) []Item {
	shared := model.MakeEdgeKey(model.TreeID(net), 0)
	items := make([]Item, n)
	for i := range items {
		own := model.MakeEdgeKey(model.TreeID(net), graph.EdgeID(1+i))
		items[i] = Item{
			Demand: first + i, Resource: net, Group: 1 + i%2,
			Profit: 1 + float64((first+i)%5), Height: 1,
			Edges:    []model.EdgeKey{shared, own},
			Critical: []model.EdgeKey{shared},
		}
	}
	return items
}

// TestWarmTableOfOne moves a warm Prepared's shard table from two shards
// to one and back to two: two clusters on separate networks solve
// sharded; the second cluster's departure leaves one component, which
// solves serially and keeps its shard, owner of its groups; a third
// cluster's arrival, on a third network and in the departed demands'
// slots, makes a second component again. The last solve replays the kept
// shard and re-runs only the new one, and every solve, dual included (no
// entry of the departed cluster may stay behind), equals a cold solve.
func TestWarmTableOfOne(t *testing.T) {
	const n = 8
	p := Prepare(reindex(append(clusterItems(0, 0, n), clusterItems(1, n, n)...)))
	p.EnableWarmStart()
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 6, RecordTrace: true}
	solve := func(step string, shards int) {
		t.Helper()
		got, err := p.Solve(cfg, 2)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := Prepare(reindex(p.items)).Solve(cfg, 1)
		if err != nil {
			t.Fatalf("%s cold: %v", step, err)
		}
		sameResult(t, step, got, want)
		if len(p.shards) != shards {
			t.Fatalf("%s: %d shards, want %d", step, len(p.shards), shards)
		}
		checkOwners(t, p)
	}
	solve("two clusters", 2)
	kept := slices.IndexFunc(p.shards, func(sh *preShard) bool { return sh.comp[0] == 0 })
	if kept < 0 {
		t.Fatal("no shard holds the first cluster")
	}
	keep := p.shards[kept]

	gone := make([]int, n)
	for i := range gone {
		gone[i] = n + i
	}
	if err := p.Apply(Delta{Remove: gone}); err != nil {
		t.Fatal(err)
	}
	solve("one cluster", 1)
	if p.shards[0] != keep {
		t.Fatal("the departure replaced the untouched cluster's shard")
	}
	want := WarmStats{Enabled: true, ColdSolves: 2, ComponentsResolved: 2}
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("one cluster: %+v, want %+v", ws, want)
	}

	if err := p.Apply(Delta{Add: clusterItems(2, 2*n, n)}); err != nil {
		t.Fatal(err)
	}
	if comps := p.Components(); len(comps) != 2 {
		t.Fatalf("a third cluster left %d components", len(comps))
	}
	solve("third cluster", 2)
	if !slices.Contains(p.shards, keep) {
		t.Fatal("the arrival replaced the untouched cluster's shard")
	}
	want = WarmStats{Enabled: true, WarmSolves: 1, ColdSolves: 2, ComponentsReplayed: 1, ComponentsResolved: 3}
	if ws := p.WarmStats(); ws != want {
		t.Fatalf("third cluster: %+v, want %+v", ws, want)
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
						if name == "fleet" && len(warm.shards) <= 1 {
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
			checkExactProfit(t, "fuzz", p.items, got)
		}
		ws := p.WarmStats()
		if ws.WarmSolves+ws.ColdSolves != len(steps)+len(workerAxis) {
			t.Fatalf("solves unaccounted: %+v after %d solves", ws, len(steps)+len(workerAxis))
		}
	})
}

// failRun runs p's sharded pipeline, after a component pass, under a
// step cap of 1, which the first shard that needs a second step in a
// stage exceeds, and fails the test unless the run fails.
func failRun(t *testing.T, p *Prepared, cfg Config) {
	t.Helper()
	plan := new(Plan)
	if err := p.plan(cfg, plan); err != nil {
		t.Fatal(err)
	}
	plan.StepCap = 1
	p.mu.Lock()
	p.ensureShards()
	_, _, err := p.runShards(cfg, plan, 1)
	p.mu.Unlock()
	if err == nil {
		t.Fatal("a step cap of 1 did not fail the sharded run")
	}
}

// churnedWarm returns a warm Prepared of a fleet that solved once and
// then churned, and its configuration.
func churnedWarm(t *testing.T) (*Prepared, Config) {
	t.Helper()
	pool := warmPoolItems(t, 4, 48, workload.UnitHeights)
	p := Prepare(reindex(pool[:40]))
	p.EnableWarmStart()
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 3}
	if _, err := p.Solve(cfg, 1); err != nil {
		t.Fatal(err)
	}
	order := make([]int, 40)
	for i := range order {
		order[i] = i
	}
	applyRandomDelta(t, p, pool, order, rand.New(rand.NewSource(6)))
	return p, cfg
}

// TestWarmRecoversFromFailedRun fails a sharded run part-way after
// churn (failRun), and then solves normally. The shards that ran before
// the failure zeroed and wrote their entries of the shared dual, which no
// recorded outcome matches any more, so the next solve must re-run every
// shard, and its result, dual included, equal a cold solve.
func TestWarmRecoversFromFailedRun(t *testing.T) {
	p, cfg := churnedWarm(t)
	failRun(t, p, cfg)
	before := p.WarmStats()
	got, err := p.Solve(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Prepare(reindex(p.items)).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after a failed run", got, want)
	if after := p.WarmStats(); after.ComponentsReplayed != before.ComponentsReplayed {
		t.Fatalf("the solve after a failed run replayed %d outcomes", after.ComponentsReplayed-before.ComponentsReplayed)
	}
}

// TestWarmFailedRunDiscardsDual fails a sharded run after churn, as
// TestWarmRecoversFromFailedRun does, and then departs every item of the
// shards that hold no outcome — the ones the failed run ran, or was to
// run — before the next solve. The failed run wrote entries of the
// shared dual for them that no outcome records, and their departure
// leaves them to no later run, so the failed run must discard that dual:
// the next sharded solve's must equal a cold solve's.
func TestWarmFailedRunDiscardsDual(t *testing.T) {
	p, cfg := churnedWarm(t)
	failRun(t, p, cfg)
	var gone []int
	for _, sh := range p.shards {
		if sh.out == nil {
			gone = append(gone, sh.comp...)
		}
	}
	if len(gone) == 0 {
		t.Fatal("the churn left no shard to re-run")
	}
	if err := p.Apply(Delta{Remove: gone}); err != nil {
		t.Fatal(err)
	}
	got, err := p.Solve(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.shards) < 2 {
		t.Fatalf("%d shards left: the solve did not shard", len(p.shards))
	}
	want, err := Prepare(reindex(p.items)).Solve(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "departures after a failed run", got, want)
}
