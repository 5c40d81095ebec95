package engine

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/workload"
)

// The incremental-state suite: any sequence of Apply deltas must leave a
// Prepared indistinguishable from Prepare over the same item slice —
// identical member lists and components, a layout that maps every
// item to the same external demand/edge/owner keys, member lists that match
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
	// (slot numbering may differ from scratch: removals leave stale slots).
	for s, want := range scratch.demandMembers {
		got, ok := p.lay.ix.DemandSlot(scratch.lay.ix.DemandID(int32(s)))
		if !ok || !slices.Equal(p.demandMembers[got], want) {
			t.Fatalf("demand group %d: members diverge from scratch %v", s, want)
		}
	}
	for e, want := range scratch.edgeMembers {
		got, ok := p.lay.ix.EdgeSlot(scratch.lay.ix.EdgeKey(int32(e)))
		if !ok || !slices.Equal(p.edgeMembers[got], want) {
			t.Fatalf("edge group %d: members diverge from scratch %v", e, want)
		}
	}

	// Component decompositions (forces both lazy builds).
	p.ensureShards()
	scratch.ensureShards()
	if len(p.comps) != len(scratch.comps) {
		t.Fatalf("%d components, scratch %d", len(p.comps), len(scratch.comps))
	}
	for c := range p.comps {
		if !slices.Equal(p.comps[c], scratch.comps[c]) {
			t.Fatalf("component %d: %v, scratch %v", c, p.comps[c], scratch.comps[c])
		}
	}

	// Layout semantics: every view resolves to the item's external keys.
	// (Slot numbering may differ from scratch: removals leave stale interned
	// slots behind, which is invisible to every solve.)
	for i := range p.items {
		it := &p.items[i]
		v := &p.lay.views[i]
		if got := p.lay.ix.DemandID(v.Slot); got != it.Demand {
			t.Fatalf("item %d: view demand %d, item demand %d", i, got, it.Demand)
		}
		if got := p.lay.owners.ID(p.lay.ownerSlot[i]); got != it.Owner {
			t.Fatalf("item %d: view owner %d, item owner %d", i, got, it.Owner)
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
	for s := range p.demandMembers {
		if !slices.Equal(p.demandMembers[s], wantD[int32(s)]) {
			t.Fatalf("demand group %d members %v, want %v", s, p.demandMembers[s], wantD[int32(s)])
		}
	}
	for e := range p.edgeMembers {
		if !slices.Equal(p.edgeMembers[e], wantE[int32(e)]) {
			t.Fatalf("edge group %d members %v, want %v", e, p.edgeMembers[e], wantE[int32(e)])
		}
	}

	// Solve results, bitwise, at every worker count.
	cfg := Config{Mode: Unit, Epsilon: 0.1, Seed: seed}
	for _, w := range workers {
		got, err := p.RunParallel(cfg, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		want, err := scratch.RunParallel(cfg, w)
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
		if got.Steps != want.Steps || got.MISIters != want.MISIters || got.Raised != want.Raised {
			t.Fatalf("workers %d: schedule counters diverged", w)
		}
		if gv, wv := got.Dual.Value(), want.Dual.Value(); gv != wv {
			t.Fatalf("workers %d: dual value %v, scratch %v", w, gv, wv)
		}
	}
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
// refreshed decomposition must match scratch even when untouched shards
// are reused, and the sharded solves must match scratch's serial ones.
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
	if _, err := p.RunParallel(cfg, 4); err != nil { // builds shards
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

// FuzzApplyDelta lets the fuzzer steer the churn sequence.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), []byte{0x03, 0x51, 0xa0, 0x17})
	f.Add(int64(9), []byte{0xff, 0x00, 0x42})
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
		for _, b := range steps {
			rng := rand.New(rand.NewSource(int64(b)*131 + seed))
			order = applyRandomDelta(t, p, pool, order, rng)
		}
		// One full check at the end keeps the fuzz iteration cheap.
		checkAgainstScratch(t, p, seed, []int{1, 2})
	})
}
