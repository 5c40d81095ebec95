package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// The incremental-state suite: any sequence of Apply deltas must leave a
// Prepared indistinguishable from Prepare over the same item slice —
// identical member lists and components, a layout that maps every
// item to the same external demand/edge keys, member lists that match
// a recomputation from the items, and bitwise-identical solve results at
// every worker count.

// deltaPoolItems builds a pool of items to churn through: a contended tree
// instance whose items are reindexed on their way in and out of the set.
func deltaPoolItems(t testing.TB, seed int64, demands int) []Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: demands, Trees: 2, Demands: demands, ProfitRatio: 8,
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

// reindex returns a copy of the items with IDs rewritten to positions.
func reindex(items []Item) []Item {
	out := slices.Clone(items)
	for i := range out {
		out[i].ID = i
	}
	return out
}

func checkAgainstScratch(t *testing.T, p *Prepared, seed int64, workers []int) {
	t.Helper()
	scratch := Prepare(reindex(p.items))

	// Member lists, group by group, matched through the external keys
	// (slot numbering may differ from scratch: departed demands' slots go
	// to later arrivals, and removals leave stale edge indices).
	demandMembers, edgeMembers := p.demandLists(), p.EdgeMembers()
	scratchDemands, scratchEdges := scratch.demandLists(), scratch.EdgeMembers()
	for s, want := range scratchDemands {
		got, ok := p.lay.ix.DemandSlot(scratch.lay.ix.DemandID(int32(s)))
		if !ok || !slices.Equal(demandMembers[got], want) {
			t.Fatalf("demand group %d: members diverge from scratch %v", s, want)
		}
	}
	for e, want := range scratchEdges {
		got, ok := p.lay.ix.EdgeSlot(scratch.lay.ix.EdgeKey(int32(e)))
		if !ok || !slices.Equal(edgeMembers[got], want) {
			t.Fatalf("edge group %d: members diverge from scratch %v", e, want)
		}
	}

	checkPlanStats(t, p)

	// Component decompositions (forces both lazy builds).
	if got, want := p.Components(), scratch.Components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("components %v, scratch %v", got, want)
	}
	checkShardLayouts(t, p)

	// Layout semantics: every view resolves to the item's external keys,
	// and its demand slot seeds the demand's stream. (Slot numbering may
	// differ from scratch, which is invisible to every solve.)
	for i := range p.items {
		it := &p.items[i]
		v := &p.lay.views[i]
		if got := p.lay.ix.DemandID(v.Slot); got != it.Demand {
			t.Fatalf("item %d: view demand %d, item demand %d", i, got, it.Demand)
		}
		if got := p.lay.demandIDs[v.Slot]; got != it.Demand {
			t.Fatalf("item %d: stream demand %d, item demand %d", i, got, it.Demand)
		}
		if v.Profit != it.Profit || v.Height != it.Height {
			t.Fatalf("item %d: view profit/height diverged", i)
		}
		if len(v.Edges) != len(it.Edges) || len(v.Critical) != len(it.Critical) {
			t.Fatalf("item %d: view path lengths diverged", i)
		}
		for j, e := range v.Edges {
			if p.lay.ix.EdgeKey(e) != it.Edges[j] {
				t.Fatalf("item %d edge %d: key %v, item %v", i, j, p.lay.ix.EdgeKey(e), it.Edges[j])
			}
		}
		for j, e := range v.Critical {
			if p.lay.ix.EdgeKey(e) != it.Critical[j] {
				t.Fatalf("item %d critical %d diverged", i, j)
			}
		}
	}

	// Member lists match a recomputation from the items.
	wantD := make(map[int32][]int32)
	wantE := make(map[int32][]int32)
	for i := range p.items {
		v := &p.lay.views[i]
		wantD[v.Slot] = append(wantD[v.Slot], int32(i))
		for _, e := range v.Edges {
			wantE[e] = append(wantE[e], int32(i))
		}
	}
	for s := range demandMembers {
		if !slices.Equal(demandMembers[s], wantD[int32(s)]) {
			t.Fatalf("demand group %d members %v, want %v", s, demandMembers[s], wantD[int32(s)])
		}
		// A slot without members is free: its last demand's lookup no
		// longer leads to it.
		if len(demandMembers[s]) == 0 {
			if got, ok := p.lay.ix.DemandSlot(p.lay.ix.DemandID(int32(s))); ok && got == int32(s) {
				t.Fatalf("demand slot %d has no members but still holds demand %d", s, p.lay.ix.DemandID(int32(s)))
			}
		}
	}
	for e := range edgeMembers {
		if !slices.Equal(edgeMembers[e], wantE[int32(e)]) {
			t.Fatalf("edge group %d members %v, want %v", e, edgeMembers[e], wantE[int32(e)])
		}
	}

	// Solve results, bitwise, at every worker count.
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: seed}
	for _, w := range workers {
		got, err := p.Solve(cfg, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		want, err := scratch.Solve(cfg, w)
		if err != nil {
			t.Fatalf("workers %d scratch: %v", w, err)
		}
		if !slices.Equal(got.Selected, want.Selected) {
			t.Fatalf("workers %d: selected %v, scratch %v", w, got.Selected, want.Selected)
		}
		if got.Profit != want.Profit || got.Lambda != want.Lambda || got.Bound != want.Bound {
			t.Fatalf("workers %d: profit/λ/bound (%v,%v,%v), scratch (%v,%v,%v)",
				w, got.Profit, got.Lambda, got.Bound, want.Profit, want.Lambda, want.Bound)
		}
		gs, gi, _ := got.mergedSchedule()
		if gs != want.Steps || gi != want.MISIters || got.Raised != want.Raised {
			t.Fatalf("workers %d: schedule counters diverged", w)
		}
		sameDual(t, fmt.Sprintf("workers %d", w), got, want)
	}
}

// checkPlanStats compares the plan statistics Apply kept with a gather
// from scratch over p's items, and the plan or error they give, in unit and
// in narrow mode, with PlanFor's over the same items.
func checkPlanStats(t *testing.T, p *Prepared) {
	t.Helper()
	var want planStats
	want.gather(p.items)
	got := p.stats
	trim := func(c []int) []int {
		for len(c) > 0 && c[len(c)-1] == 0 {
			c = c[:len(c)-1]
		}
		return c
	}
	if got.n != want.n || got.invalid != want.invalid ||
		!slices.Equal(trim(got.byCritical), trim(want.byCritical)) || !slices.Equal(trim(got.byGroup), trim(want.byGroup)) ||
		got.n > 0 && (got.pmin != want.pmin || got.pmax != want.pmax || got.hmin != want.hmin || got.hmax != want.hmax ||
			got.npmin != want.npmin || got.npmax != want.npmax || got.nhmin != want.nhmin || got.nhmax != want.nhmax) {
		t.Fatalf("plan statistics %+v, scratch %+v", got, want)
	}
	for _, mode := range []Mode{Unit, Narrow} {
		cfg := Config{Mode: mode, Epsilon: 0.1}
		gplan := new(Plan)
		gerr := p.plan(cfg, gplan)
		if gerr != nil {
			gplan = nil
		}
		wplan, werr := PlanFor(p.Items(), cfg)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gplan, wplan) {
			t.Fatalf("%v: plan %+v (%v), PlanFor %+v (%v)", mode, gplan, gerr, wplan, werr)
		}
	}
}

// demandLists returns p's demand member lists, building them on the
// first read as ItemsOfDemand does.
func (p *Prepared) demandLists() [][]int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureDemandMembers()
	return p.demandMembers
}

// componentItems rebuilds a component's items: the items of comp,
// re-indexed by position.
func componentItems(p *Prepared, comp []int) []Item {
	items := make([]Item, len(comp))
	for i, id := range comp {
		items[i] = p.items[id]
		items[i].ID = i
	}
	return items
}

// checkShardLayouts checks every shard of p against its items prepared
// afresh: its demand slots and edge indices must be the global ones of
// exactly the keys interning the shard's items gives, each once, and the
// shard must own each of them. Then checkOwners.
func checkShardLayouts(t *testing.T, p *Prepared) {
	t.Helper()
	for s, sh := range p.shards {
		want := Prepare(componentItems(p, sh.comp)).lay
		var gotD, wantD []int
		for _, g := range sh.slots {
			gotD = append(gotD, p.lay.ix.DemandID(g))
			if p.slotOwner[g] != sh {
				t.Fatalf("shard %d does not own its demand slot %d", s, g)
			}
		}
		for l := 0; l < want.demands; l++ {
			wantD = append(wantD, want.ix.DemandID(int32(l)))
		}
		slices.Sort(gotD)
		slices.Sort(wantD)
		if !slices.Equal(gotD, wantD) {
			t.Fatalf("shard %d: demands %v, interning its items gives %v", s, gotD, wantD)
		}
		var gotE, wantE []model.EdgeKey
		for _, g := range sh.edges {
			gotE = append(gotE, p.lay.ix.EdgeKey(g))
			if p.edgeOwner[g] != sh {
				t.Fatalf("shard %d does not own its edge index %d", s, g)
			}
		}
		for l := 0; l < want.edges; l++ {
			wantE = append(wantE, want.ix.EdgeKey(int32(l)))
		}
		slices.Sort(gotE)
		slices.Sort(wantE)
		if !slices.Equal(gotE, wantE) {
			t.Fatalf("shard %d: edges %v, interning its items gives %v", s, gotE, wantE)
		}
	}
	checkOwners(t, p)
}

// checkOwners checks that every owner entry of p names a live shard or
// none, and that the entries naming a shard are exactly its groups: a
// shard a build replaced gave its entries up, and holds no memory through
// them.
func checkOwners(t testing.TB, p *Prepared) {
	t.Helper()
	live := make(map[*preShard]bool, len(p.shards))
	slots, edges := 0, 0
	for _, sh := range p.shards {
		live[sh] = true
		slots += len(sh.slots)
		edges += len(sh.edges)
	}
	count := func(side string, owners []*preShard, want int) {
		n := 0
		for g, sh := range owners {
			if sh == nil {
				continue
			}
			if !live[sh] {
				t.Fatalf("%s %d is owned by a shard that is not live", side, g)
			}
			n++
		}
		if n != want {
			t.Fatalf("%d %s entries name a shard, the live shards use %d", n, side, want)
		}
	}
	count("demand slot", p.slotOwner, slots)
	count("edge index", p.edgeOwner, edges)
}

// applyRandomDelta churns the prepared set against the pool: inSet marks
// pool items currently in p (by pool id), order[i] is the pool id at item
// position i. Returns the refreshed order.
func applyRandomDelta(t testing.TB, p *Prepared, pool []Item, order []int, rng *rand.Rand) []int {
	t.Helper()
	n := len(order)
	var del []int
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			del = append(del, i)
		}
	}
	inSet := make(map[int]bool, n)
	for _, pid := range order {
		inSet[pid] = true
	}
	for _, i := range del {
		inSet[order[i]] = false
	}
	var add []Item
	var addPool []int
	for pid := range pool {
		if !inSet[pid] && rng.Intn(len(pool)/8+1) == 0 {
			add = append(add, pool[pid])
			addPool = append(addPool, pid)
		}
	}
	if err := p.Apply(Delta{Remove: del, Add: add}); err != nil {
		t.Fatal(err)
	}

	// Recompute order the same way Apply compacts: movers descend into
	// freed slots ascending, additions take the rest.
	newN := n - len(del) + len(add)
	next := slices.Clone(order)
	removed := make([]bool, n)
	for _, i := range del {
		removed[i] = true
	}
	var movers, free []int
	for i := newN; i < n; i++ {
		if !removed[i] {
			movers = append(movers, i)
		}
	}
	for _, r := range del {
		if r < newN {
			free = append(free, r)
		}
	}
	slices.Sort(free)
	for i := n; i < newN; i++ {
		free = append(free, i)
	}
	if newN > len(next) {
		next = append(next, make([]int, newN-len(next))...)
	}
	for i, m := range movers {
		next[free[i]] = next[m]
	}
	next = next[:newN]
	for i, pid := range addPool {
		next[free[len(movers)+i]] = pid
	}
	for i, pid := range next {
		if p.items[i].Demand != pool[pid].Demand || p.items[i].Profit != pool[pid].Profit {
			t.Fatalf("position %d: item does not match pool id %d", i, pid)
		}
	}
	return next
}

// TestApplyDeltaMatchesScratch drives random churn sequences at several
// seeds and asserts full equivalence with a from-scratch Prepare after
// every step, including solves at multiple worker counts.
func TestApplyDeltaMatchesScratch(t *testing.T) {
	workers := []int{1, 2, 4}
	for seed := int64(0); seed < 4; seed++ {
		pool := deltaPoolItems(t, seed, 48)
		start := len(pool) * 2 / 3
		p := Prepare(reindex(pool[:start]))
		order := make([]int, start)
		for i := range order {
			order[i] = i
		}
		rng := rand.New(rand.NewSource(seed * 977))
		for step := 0; step < 5; step++ {
			order = applyRandomDelta(t, p, pool, order, rng)
			checkAgainstScratch(t, p, seed+int64(step), workers)
		}
	}
}

// TestApplyDeltaShardReuse exercises the stale-shard path: solve through
// the sharded pipeline (building shards), churn, and solve again — the
// refreshed table must match scratch's components even when untouched
// shards are reused, and the sharded solves must match scratch's serial
// ones.
func TestApplyDeltaShardReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 48, Trees: 6, Demands: 96, ProfitRatio: 8,
		AccessMin: 1, AccessMax: 1, // disjoint fleet: many components
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := BuildTreeItems(in, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	start := len(pool) * 3 / 4
	p := Prepare(reindex(pool[:start]))
	order := make([]int, start)
	for i := range order {
		order[i] = i
	}
	p.EnableWarmStart() // cold solves run serially; the warm cache shards
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 5}
	if _, err := p.Solve(cfg, 4); err != nil { // builds shards
		t.Fatal(err)
	}
	if len(p.shards) < 2 || p.WarmStats().ComponentsResolved != len(p.shards) {
		t.Fatalf("first solve ran %+v over %d shards: the sharded pipeline did not run", p.WarmStats(), len(p.shards))
	}
	for step := 0; step < 4; step++ {
		order = applyRandomDelta(t, p, pool, order, rng)
		checkAgainstScratch(t, p, int64(step), []int{4})
	}
}

// TestApplyDeltaValidation checks that malformed deltas are rejected before
// any state changes.
func TestApplyDeltaValidation(t *testing.T) {
	pool := deltaPoolItems(t, 3, 16)
	p := Prepare(reindex(pool))
	wantItems := len(p.items)
	bad := []Delta{
		{Remove: []int{-1}},
		{Remove: []int{len(p.items)}},
		{Remove: []int{0, 0}},
		{Add: []Item{{}}},
		{Add: []Item{{Group: 1, Profit: 1, Height: 2, Edges: pool[0].Edges, Critical: pool[0].Critical}}},
		{Add: []Item{{Group: 1, Profit: 0, Height: 1, Edges: pool[0].Edges, Critical: pool[0].Critical}}},
	}
	for i, d := range bad {
		if err := p.Apply(d); err == nil {
			t.Fatalf("delta %d: no error", i)
		}
		if len(p.items) != wantItems {
			t.Fatalf("delta %d: item count changed on failed Apply", i)
		}
	}
	checkAgainstScratch(t, p, 1, []int{1})
}

// TestApplyDeltaDrainAndRefill churns down to (nearly) empty and back up,
// covering the grow-path where additions outnumber the current set.
func TestApplyDeltaDrainAndRefill(t *testing.T) {
	pool := deltaPoolItems(t, 7, 24)
	p := Prepare(reindex(pool))
	all := make([]int, len(pool))
	for i := range all {
		all[i] = i
	}
	if err := p.Apply(Delta{Remove: all[:len(all)-1]}); err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, p, 2, []int{1, 3})
	if err := p.Apply(Delta{Add: pool[:len(pool)-1]}); err != nil {
		t.Fatal(err)
	}
	if len(p.items) != len(pool) {
		t.Fatalf("refill: %d items, want %d", len(p.items), len(pool))
	}
	checkAgainstScratch(t, p, 3, []int{1, 3})
}

// extremeItems is a fleet of six 4-item chains, one component each: item
// i spans edges i+i/4 and i+i/4+1 of network 0, with π the first of them,
// group 1 + i%2 and a profit in 2..6 that several items share. Four items
// are unique: item lowProfit has the lowest profit, highProfit the
// highest, deepGroup the only item of group 4, and widePi the only
// two-edge critical set.
func extremeItems() []Item {
	const n = 24
	e := func(k int) model.EdgeKey { return model.MakeEdgeKey(0, graph.EdgeID(k)) }
	items := make([]Item, n)
	for i := range items {
		a := i + i/4
		items[i] = Item{
			ID: i, Demand: i, Group: 1 + i%2, Profit: float64(2 + i%5), Height: 1,
			Edges: []model.EdgeKey{e(a), e(a + 1)}, Critical: []model.EdgeKey{e(a)},
		}
	}
	items[lowProfit].Profit = 1
	items[highProfit].Profit = 10
	items[deepGroup].Group = 4
	items[widePi].Critical = items[widePi].Edges
	return items
}

const lowProfit, highProfit, deepGroup, widePi = 3, 9, 14, 21

// TestApplyPlanStatsExtremes departs, alone and together with arrivals,
// the unique holder of the lowest profit, of the highest profit, of the
// deepest group and of the largest |π|. The profit departures leave an
// extreme without a holder, so Apply gathers the statistics again over
// every item (CounterPlanItems); ℓmax and ∆ fall with the counts alone.
// Each plan must move as the departure says, and the Prepared must match
// one built from scratch: statistics, plans, components and solves.
func TestApplyPlanStatsExtremes(t *testing.T) {
	e := func(k int) model.EdgeKey { return model.MakeEdgeKey(0, graph.EdgeID(k)) }
	// Arrivals on the chains' edges, inside every range.
	arrivals := []Item{
		{Demand: 100, Group: 1, Profit: 3.5, Height: 1, Edges: []model.EdgeKey{e(0), e(1)}, Critical: []model.EdgeKey{e(1)}},
		{Demand: 101, Group: 2, Profit: 4.5, Height: 1, Edges: []model.EdgeKey{e(11), e(12)}, Critical: []model.EdgeKey{e(11)}},
	}
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: 2}
	for _, tc := range []struct {
		name   string
		victim int
		rescan bool
		moved  func(before, after *Plan) bool
	}{
		{"lowest profit", lowProfit, true, func(b, a *Plan) bool { return a.PMin == 2 && b.PMin == 1 }},
		{"highest profit", highProfit, true, func(b, a *Plan) bool { return a.PMax == 6 && b.PMax == 10 }},
		{"deepest group", deepGroup, false, func(b, a *Plan) bool { return a.MaxGroup == 2 && b.MaxGroup == 4 }},
		{"largest critical set", widePi, false, func(b, a *Plan) bool { return a.Delta == 1 && b.Delta == 2 }},
	} {
		for _, add := range [][]Item{nil, arrivals} {
			t.Run(fmt.Sprintf("%s/arrivals=%d", tc.name, len(add)), func(t *testing.T) {
				p := Prepare(extremeItems())
				p.EnableWarmStart()
				tally := &counterTally{}
				p.SetRecorder(tally)
				bplan := new(Plan)
				if err := p.plan(cfg, bplan); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Solve(cfg, 2); err != nil { // shards, so the next solve replays
					t.Fatal(err)
				}
				if err := p.Apply(Delta{Remove: []int{tc.victim}, Add: slices.Clone(add)}); err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				if tc.rescan {
					want = int64(len(p.items))
				}
				if got := tally.take(CounterPlanItems); got != want {
					t.Fatalf("Apply read %d items to plan, want %d", got, want)
				}
				aplan := new(Plan)
				if err := p.plan(cfg, aplan); err != nil {
					t.Fatal(err)
				}
				if !tc.moved(bplan, aplan) {
					t.Fatalf("plan %+v, before the departure %+v", *aplan, *bplan)
				}
				if got := tally.take(CounterPlanItems); got != 0 {
					t.Fatalf("planning read %d items", got)
				}
				checkAgainstScratch(t, p, 2, []int{1, 2})
			})
		}
	}
}

// sameItems fails unless got holds want's items bitwise: every field, the
// floats by their bits, and the path and critical slices entry by entry.
func sameItems(t *testing.T, tag string, got, want []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", tag, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.ID != w.ID || g.Demand != w.Demand || g.Resource != w.Resource || g.Group != w.Group ||
			math.Float64bits(g.Profit) != math.Float64bits(w.Profit) || math.Float64bits(g.Height) != math.Float64bits(w.Height) ||
			!slices.Equal(g.Edges, w.Edges) || !slices.Equal(g.Critical, w.Critical) {
			t.Fatalf("%s: item %d is %+v, want %+v", tag, i, *g, *w)
		}
	}
}

// FuzzApplyDelta lets the fuzzer steer the churn sequence. Before every
// Apply it takes an item view and a copy of the items; after the last,
// every view must still materialize to its copy. The third seed's deltas
// shrink the set three times and grow it three times, and its views take a
// fresh base twice after the first, when the log outgrows the set.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), []byte{0x03, 0x51, 0xa0, 0x17})
	f.Add(int64(9), []byte{0xff, 0x00, 0x42})
	f.Add(int64(4), []byte{0xd2, 0x45, 0x1e, 0x71, 0xe3, 0x4d})
	f.Fuzz(func(t *testing.T, seed int64, steps []byte) {
		if len(steps) > 6 {
			steps = steps[:6]
		}
		pool := deltaPoolItems(t, seed%16, 24)
		start := len(pool) / 2
		p := Prepare(reindex(pool[:start]))
		order := make([]int, start)
		for i := range order {
			order[i] = i
		}
		var views []ItemsView
		var clones [][]Item
		for _, b := range steps {
			views = append(views, p.ItemsView())
			clones = append(clones, slices.Clone(p.items))
			rng := rand.New(rand.NewSource(int64(b)*131 + seed))
			order = applyRandomDelta(t, p, pool, order, rng)
		}
		views = append(views, p.ItemsView())
		clones = append(clones, slices.Clone(p.items))
		for i, v := range views {
			sameItems(t, fmt.Sprintf("view %d", i), v.Items(), clones[i])
		}
		// One full check at the end keeps the fuzz iteration cheap.
		checkAgainstScratch(t, p, seed, []int{1, 2})
	})
}
