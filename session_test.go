package treesched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// buildInstance converts a generated model instance into the public builder.
func buildInstance(t testing.TB, cfg workload.TreeConfig, seed int64) *treesched.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return publicInstance(t, in, in.Demands)
}

// publicInstance builds the public form of a model instance's networks
// carrying the given demands.
func publicInstance(t testing.TB, in *model.Instance, demands []model.Demand) *treesched.Instance {
	t.Helper()
	inst := treesched.NewInstance(in.NumVertices)
	for _, tr := range in.Trees {
		edges := make([][2]int, 0, tr.N()-1)
		for _, e := range tr.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		if _, err := inst.AddTree(edges); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range demands {
		inst.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...), treesched.Height(d.Height))
	}
	return inst
}

// TestSessionMatchesScratchSolve churns a session and asserts after every
// round that its solve matches an engine run prepared from scratch over the
// session's own item set would — indirectly, by checking determinism of
// repeated session solves and feasibility of the assignments (the engine's
// incremental-state suite asserts bitwise scratch equality directly).
func TestSessionMatchesScratchSolve(t *testing.T) {
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 3, Parallelism: 2})
	inst := buildInstance(t, workload.TreeConfig{
		Vertices: 32, Trees: 2, Demands: 24, ProfitRatio: 8,
	}, 5)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	liveIDs := make([]int, 24)
	for i := range liveIDs {
		liveIDs[i] = i
	}
	for round := 0; round < 5; round++ {
		// Depart ~1/4 of the live demands, arrive a similar number.
		var c treesched.Churn
		var kept []int
		for _, id := range liveIDs {
			if rng.Intn(4) == 0 {
				c.Remove = append(c.Remove, id)
			} else {
				kept = append(kept, id)
			}
		}
		for i := 0; i < len(c.Remove)+rng.Intn(3); i++ {
			u, v := rng.Intn(32), rng.Intn(32)
			if u == v {
				v = (v + 1) % 32
			}
			c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*7})
		}
		ids, err := sess.Update(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(c.Add) {
			t.Fatalf("round %d: %d ids for %d arrivals", round, len(ids), len(c.Add))
		}
		liveIDs = append(kept, ids...)
		if sess.Demands() != len(liveIDs) {
			t.Fatalf("round %d: session has %d demands, want %d", round, sess.Demands(), len(liveIDs))
		}

		res1, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		res2, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res1.Profit != res2.Profit || len(res1.Assignments) != len(res2.Assignments) {
			t.Fatalf("round %d: repeated session solves diverged", round)
		}
		if res1.DualBound < res1.Profit-1e-9 {
			t.Fatalf("round %d: profit %v exceeds dual bound %v", round, res1.Profit, res1.DualBound)
		}
		// Every assignment names a live demand, at most once.
		seen := make(map[int]bool)
		for _, a := range res1.Assignments {
			if !slices.Contains(liveIDs, a.Demand) {
				t.Fatalf("round %d: assignment for departed/unknown demand %d", round, a.Demand)
			}
			if seen[a.Demand] {
				t.Fatalf("round %d: demand %d assigned twice", round, a.Demand)
			}
			seen[a.Demand] = true
		}
	}
}

// TestSessionEligibility pins the supported configurations.
func TestSessionEligibility(t *testing.T) {
	inst := func() *treesched.Instance {
		in := treesched.NewInstance(4)
		if _, err := in.AddTree([][2]int{{0, 1}, {1, 2}, {2, 3}}); err != nil {
			t.Fatal(err)
		}
		in.AddDemand(0, 2, 3)
		return in
	}
	if _, err := treesched.NewSolver(treesched.Options{Simulate: true}).Session(inst()); err == nil {
		t.Fatal("Simulate session accepted")
	}
	if _, err := treesched.NewSolver(treesched.Options{Algorithm: treesched.SequentialTree}).Session(inst()); err == nil {
		t.Fatal("SequentialTree session accepted")
	}
	sub := inst()
	sub.AddDemand(1, 3, 2, treesched.Height(0.4))
	if _, err := treesched.NewSolver(treesched.Options{}).Session(sub); err == nil {
		t.Fatal("Auto session with sub-unit heights accepted")
	}
	if _, err := treesched.NewSolver(treesched.Options{Algorithm: treesched.DistributedUnit}).Session(sub); err != nil {
		t.Fatalf("DistributedUnit session rejected sub-unit heights: %v", err)
	}
	sess, err := treesched.NewSolver(treesched.Options{}).Session(inst())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(treesched.Churn{Add: []treesched.NewDemand{{U: 0, V: 3, Profit: 1, Height: 0.3}}}); err == nil {
		t.Fatal("Auto session accepted a sub-unit arrival")
	}
	if _, err := sess.Update(treesched.Churn{Remove: []int{7}}); err == nil {
		t.Fatal("removal of unknown demand accepted")
	}
	if _, err := sess.Update(treesched.Churn{Add: []treesched.NewDemand{{U: 0, V: 0, Profit: 1}}}); err == nil {
		t.Fatal("equal endpoints accepted")
	}
	// A failed update leaves the session usable.
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionLongChurnReusesSlots churns 16 times the live set through a
// small session: solves must stay bitwise equal to a scratch engine run
// over the session's items, and departed demands' slots must go to later
// arrivals, so that after every round the layout holds no more demand
// slots than the most live demands a round has seen: those before it plus
// its arrivals.
func TestSessionLongChurnReusesSlots(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 8}
	s := treesched.NewSolver(opts)
	inst := buildInstance(t, workload.TreeConfig{
		Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 4,
	}, 17)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	live := make([]int, 10)
	for i := range live {
		live[i] = i
	}
	peak := len(live)
	for round := 0; round < 40; round++ {
		c := treesched.Churn{Remove: live[:4]}
		for i := 0; i < 4; i++ {
			u, v := rng.Intn(16), rng.Intn(16)
			if u == v {
				v = (v + 1) % 16
			}
			c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*3})
		}
		peak = max(peak, len(live)+len(c.Add))
		ids, err := sess.Update(c)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		live = append(live[4:], ids...)
		if slots := treesched.SessionDemandSlots(sess); slots > peak {
			t.Fatalf("round %d: %d demand slots, bound %d", round, slots, peak)
		}

		got, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		items := treesched.SessionItems(sess)
		eres, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: opts.Epsilon, Seed: opts.Seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Profit != eres.Profit || got.DualBound != eres.Bound {
			t.Fatalf("round %d: session (%v,%v), scratch (%v,%v)", round, got.Profit, got.DualBound, eres.Profit, eres.Bound)
		}
	}
	if sess.Demands() != 10 {
		t.Fatalf("live set drifted to %d", sess.Demands())
	}
	if st := sess.Stats(); st.Reprepares != 0 {
		t.Fatalf("a session re-prepared: %+v", st)
	}
}

// TestSessionGrowsIntoFleetReplays grows a session from one demand into a
// fleet of 64 demands on 8 disjoint networks, then churns it. Its first
// solve finds one component, so its solves stay serial; the verdict
// expires, and the next solve looks at the components again, at the first
// round after which the items added since that solve outnumber 2·items+64.
// That solve runs every component, and every later one replays.
func TestSessionGrowsIntoFleetReplays(t *testing.T) {
	const nets, vertices, fleet, churn = 8, 32, 64, 4
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: vertices, Trees: nets, Demands: 1, ProfitRatio: 4, AccessMin: 1, AccessMax: 1,
	}, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	opts := treesched.Options{Epsilon: 0.1, Seed: 9, Parallelism: 1}
	sess, err := treesched.NewSolver(opts).Session(publicInstance(t, in, in.Demands))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	live := []int{0}
	added, pass := 0, -1
	for round := 0; pass < 0 || round <= pass+1; round++ {
		if round == 200 {
			t.Fatal("the single-component verdict never expired")
		}
		var c treesched.Churn
		if len(live) >= fleet {
			c.Remove = live[:churn]
		}
		for range churn {
			u, v := rng.Intn(vertices), rng.Intn(vertices)
			if u == v {
				v = (v + 1) % vertices
			}
			c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + 3*rng.Float64(), Access: []int{rng.Intn(nets)}})
		}
		ids, err := sess.Update(c)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		live = append(live[len(c.Remove):], ids...)
		added += len(c.Add)
		if pass < 0 && added > 2*len(live)+64 {
			pass = round
		}
		got, err := sess.Solve()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		items := treesched.SessionItems(sess)
		want, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: opts.Epsilon, Seed: opts.Seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Profit != want.Profit || got.DualBound != want.Bound {
			t.Fatalf("round %d: session (%v,%v), scratch (%v,%v)", round, got.Profit, got.DualBound, want.Profit, want.Bound)
		}
		st := sess.Stats()
		switch {
		case pass < 0:
			if st.ComponentsResolved != 0 {
				t.Fatalf("round %d: solved by components before the verdict expired: %+v", round, st)
			}
		case round == pass:
			if st.WarmSolves != 0 || st.ComponentsResolved < 2 {
				t.Fatalf("round %d: the expired verdict's solve did not run every component: %+v", round, st)
			}
		case st.WarmSolves != 1:
			t.Fatalf("round %d: the solve after the component pass did not replay: %+v", round, st)
		}
	}
}

// TestSessionStatsCounters drives a churn sequence of 18 times the live set
// and checks every Stats counter along the way.
func TestSessionStatsCounters(t *testing.T) {
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 8})
	inst := buildInstance(t, workload.TreeConfig{
		Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 4,
	}, 17)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Live != 10 || st.Updates != 0 || st.Solves != 0 || st.Reprepares != 0 {
		t.Fatalf("fresh session stats %+v", st)
	}
	if st.Items < st.Live {
		t.Fatalf("items %d < live %d", st.Items, st.Live)
	}

	rng := rand.New(rand.NewSource(29))
	live := make([]int, 10)
	for i := range live {
		live[i] = i
	}
	for round := 0; round < 60; round++ {
		c := treesched.Churn{Remove: live[:3]}
		for i := 0; i < 3; i++ {
			u, v := rng.Intn(16), rng.Intn(16)
			if u == v {
				v = (v + 1) % 16
			}
			c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*3})
		}
		ids, err := sess.Update(c)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		live = append(live[3:], ids...)

		st = sess.Stats()
		if st.Updates != round+1 {
			t.Fatalf("round %d: Updates = %d", round, st.Updates)
		}
		if st.Live != 10 {
			t.Fatalf("round %d: Live = %d", round, st.Live)
		}
		if st.LastAdded == 0 || st.LastRemoved == 0 {
			t.Fatalf("round %d: last delta (%d,%d)", round, st.LastRemoved, st.LastAdded)
		}
		if st.Reprepares != 0 {
			t.Fatalf("round %d: Reprepares = %d, want 0", round, st.Reprepares)
		}
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().Solves; got != 1 {
		t.Fatalf("Solves = %d, want 1", got)
	}
}

// TestSessionUpdateAtomic checks batch atomicity: a churn containing one
// invalid entry must reject as a whole, leaving the live set, the solve
// result, the id allocator, and every Stats counter untouched.
func TestSessionUpdateAtomic(t *testing.T) {
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 4})
	inst := buildInstance(t, workload.TreeConfig{
		Vertices: 16, Trees: 2, Demands: 8, ProfitRatio: 4,
	}, 19)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	beforeStats := sess.Stats()
	// Since the live set never changes in this test, every further solve
	// repeats the same warm-start accounting (a full replay or a serial
	// bypass, depending on the component structure); measure that
	// steady-state per-solve delta once so the loop can model its
	// verification solves exactly.
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	perSolve := sess.Stats()
	perSolve.Solves -= beforeStats.Solves
	perSolve.WarmSolves -= beforeStats.WarmSolves
	perSolve.ColdSolves -= beforeStats.ColdSolves
	perSolve.ComponentsReplayed -= beforeStats.ComponentsReplayed
	perSolve.ComponentsResolved -= beforeStats.ComponentsResolved
	beforeStats = sess.Stats()

	good := treesched.NewDemand{U: 0, V: 5, Profit: 2}
	for name, c := range map[string]treesched.Churn{
		"invalid endpoints":   {Remove: []int{0}, Add: []treesched.NewDemand{good, {U: 3, V: 3, Profit: 1}}},
		"out-of-range vertex": {Remove: []int{1}, Add: []treesched.NewDemand{good, {U: 0, V: 99, Profit: 1}}},
		"sub-unit under Auto": {Remove: []int{2}, Add: []treesched.NewDemand{good, {U: 0, V: 5, Profit: 1, Height: 0.4}}},
		"non-positive profit": {Remove: []int{3}, Add: []treesched.NewDemand{good, {U: 0, V: 5, Profit: -1}}},
		"unknown removal":     {Remove: []int{0, 77}, Add: []treesched.NewDemand{good}},
		"duplicate removal":   {Remove: []int{4, 4}, Add: []treesched.NewDemand{good}},
		"unknown access":      {Remove: []int{5}, Add: []treesched.NewDemand{good, {U: 0, V: 5, Profit: 1, Access: []int{9}}}},
	} {
		if _, err := sess.Update(c); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if got := sess.Demands(); got != 8 {
			t.Fatalf("%s: live set half-applied: %d demands, want 8", name, got)
		}
		if got := sess.Stats(); got != beforeStats {
			t.Fatalf("%s: stats moved on a rejected batch: %+v -> %+v", name, beforeStats, got)
		}
		after, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// The verification solve itself, including its warm accounting.
		beforeStats.Solves += perSolve.Solves
		beforeStats.WarmSolves += perSolve.WarmSolves
		beforeStats.ColdSolves += perSolve.ColdSolves
		beforeStats.ComponentsReplayed += perSolve.ComponentsReplayed
		beforeStats.ComponentsResolved += perSolve.ComponentsResolved
		if after.Profit != before.Profit || after.DualBound != before.DualBound {
			t.Fatalf("%s: solve drifted after rejected batch: (%v,%v) -> (%v,%v)",
				name, before.Profit, before.DualBound, after.Profit, after.DualBound)
		}
	}

	// The id allocator must not have burned ids on rejected batches: the
	// next successful arrival gets id 8.
	ids, err := sess.Update(treesched.Churn{Add: []treesched.NewDemand{good}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 8 {
		t.Fatalf("ids after rejected batches = %v, want [8]", ids)
	}
}

// distinctDemands returns the distinct Demand fields of items, ascending.
func distinctDemands(items []engine.Item) []int {
	ids := make([]int, len(items))
	for i := range items {
		ids[i] = items[i].Demand
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// TestSessionLiveIDs drives removals of initial and arrived ids, batches
// rejected as a whole, and churn of 10 times the live set, whose arrivals
// take departed demands' slots. After every
// step the live ids SolveWithItems returns must ascend strictly, equal the
// distinct demands of its items and the test's own model of the live set,
// and agree with Demands and Stats().Live.
func TestSessionLiveIDs(t *testing.T) {
	cfg := workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 12, ProfitRatio: 4}
	sess, err := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 6}).Session(buildInstance(t, cfg, 41))
	if err != nil {
		t.Fatal(err)
	}
	expect := make([]int, cfg.Demands)
	for i := range expect {
		expect[i] = i
	}
	check := func(step string) {
		t.Helper()
		_, items, live, err := sess.SolveWithItems()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for i := 1; i < len(live); i++ {
			if live[i-1] >= live[i] {
				t.Fatalf("%s: live ids not strictly ascending: %v", step, live)
			}
		}
		if want := distinctDemands(items.Items()); !slices.Equal(live, want) {
			t.Fatalf("%s: live ids %v, items hold demands %v", step, live, want)
		}
		if !slices.Equal(live, expect) {
			t.Fatalf("%s: live ids %v, want %v", step, live, expect)
		}
		if got := sess.Demands(); got != len(live) {
			t.Fatalf("%s: Demands() = %d, want %d", step, got, len(live))
		}
		if got := sess.Stats().Live; got != len(live) {
			t.Fatalf("%s: Stats().Live = %d, want %d", step, got, len(live))
		}
	}
	rng := rand.New(rand.NewSource(43))
	arrivals := func(n int) []treesched.NewDemand {
		add := make([]treesched.NewDemand, n)
		for i := range add {
			u := rng.Intn(cfg.Vertices)
			add[i] = treesched.NewDemand{U: u, V: (u + 1 + rng.Intn(cfg.Vertices-1)) % cfg.Vertices, Profit: 1 + rng.Float64()*3}
		}
		return add
	}
	churn := func(step string, remove []int, add int) {
		t.Helper()
		ids, err := sess.Update(treesched.Churn{Remove: remove, Add: arrivals(add)})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		expect = slices.DeleteFunc(expect, func(id int) bool { return slices.Contains(remove, id) })
		expect = append(expect, ids...)
		check(step)
	}

	check("initial")
	churn("initial ids, unsorted", []int{7, 0, 3}, 2)
	churn("arrived and initial ids", []int{13, 11}, 1)
	churn("arrivals only", nil, 2)
	churn("removals only", []int{12, 14}, 0)

	for _, tc := range []struct {
		remove []int
		err    string
	}{
		{[]int{5, 99}, "treesched: session has no live demand 99"},
		{[]int{0}, "treesched: session has no live demand 0"}, // removed above
		{[]int{4, 4}, "treesched: demand 4 removed twice"},
		{[]int{6, 77, 6}, "treesched: session has no live demand 77"},
		{[]int{2, 9, 2, 88}, "treesched: demand 2 removed twice"},
		{[]int{9, 2, 9, 2}, "treesched: demand 9 removed twice"},
	} {
		_, err := sess.Update(treesched.Churn{Remove: tc.remove, Add: arrivals(1)})
		if err == nil || err.Error() != tc.err {
			t.Fatalf("remove %v: error %v, want %q", tc.remove, err, tc.err)
		}
		check(fmt.Sprintf("rejected %v", tc.remove))
	}

	// Churn the oldest live ids through 10 times the live set.
	for round := 0; 3*round < 10*len(expect); round++ {
		churn(fmt.Sprintf("churn round %d", round), slices.Clone(expect[:3]), 3)
	}
}

// TestSessionConcurrentChurnSolve hammers interleaved Update and
// SolveWithItems from many goroutines (run under -race in CI) and then
// asserts epoch consistency: every published (result, item set) pair is
// bitwise reproducible by a from-scratch engine run over exactly that item
// set — the contract the serve actor's snapshots depend on.
func TestSessionConcurrentChurnSolve(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 12, Parallelism: 2}
	s := treesched.NewSolver(opts)
	const updaters, rounds, solvers, solves = 4, 6, 2, 8
	inst := buildInstance(t, workload.TreeConfig{
		Vertices: 24, Trees: 2, Demands: 16, ProfitRatio: 8,
	}, 37)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}

	// The item views are materialized only after every round: each must
	// still hold the item set of its own round.
	type capture struct {
		res   *treesched.Result
		items engine.ItemsView
		live  []int
	}
	captures := make([][]capture, solvers)
	var wg sync.WaitGroup
	for k := 0; k < updaters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + k)))
			mine := []int{k * 2, k*2 + 1} // disjoint initial ownership
			for r := 0; r < rounds; r++ {
				c := treesched.Churn{Remove: []int{mine[0]}}
				u, v := rng.Intn(24), rng.Intn(24)
				if u == v {
					v = (v + 1) % 24
				}
				c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*7})
				ids, err := sess.Update(c)
				if err != nil {
					t.Errorf("updater %d round %d: %v", k, r, err)
					return
				}
				mine = append(mine[1:], ids...)
			}
		}(k)
	}
	for k := 0; k < solvers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := 0; r < solves; r++ {
				res, items, live, err := sess.SolveWithItems()
				if err != nil {
					t.Errorf("solver %d round %d: %v", k, r, err)
					return
				}
				captures[k] = append(captures[k], capture{res, items, live})
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for k := range captures {
		for r, got := range captures[k] {
			items := got.items.Items()
			if want := distinctDemands(items); !slices.Equal(got.live, want) {
				t.Fatalf("solver %d capture %d: live ids %v, items hold %v", k, r, got.live, want)
			}
			for i := range items {
				items[i].ID = i
			}
			eres, err := engine.Prepare(items).Solve(engine.Config{
				Mode: engine.Unit, Epsilon: opts.Epsilon, Seed: opts.Seed,
			}, 1)
			if err != nil {
				t.Fatalf("solver %d capture %d: scratch run: %v", k, r, err)
			}
			if got.res.Profit != eres.Profit || got.res.DualBound != eres.Bound {
				t.Fatalf("solver %d capture %d: published (%v,%v), scratch (%v,%v)",
					k, r, got.res.Profit, got.res.DualBound, eres.Profit, eres.Bound)
			}
			if len(got.res.Assignments) != len(eres.Selected) {
				t.Fatalf("solver %d capture %d: %d assignments, scratch %d",
					k, r, len(got.res.Assignments), len(eres.Selected))
			}
			for i, id := range eres.Selected {
				if got.res.Assignments[i].Demand != items[id].Demand ||
					got.res.Assignments[i].Network != items[id].Resource {
					t.Fatalf("solver %d capture %d: assignment %d diverged", k, r, i)
				}
			}
		}
	}
}

// TestSolverArbitraryPreparedCache checks DistributedArbitrary (pinned or
// resolved by Auto) on a Solver: repeated solves return exactly the
// package-level Solve's result.
func TestSolverArbitraryPreparedCache(t *testing.T) {
	cfg := workload.TreeConfig{
		Vertices: 24, Trees: 2, Demands: 18, ProfitRatio: 8,
		Heights: workload.MixedHeights, HMin: 0.1,
	}
	for _, algo := range []treesched.Algorithm{treesched.Auto, treesched.DistributedArbitrary} {
		opts := treesched.Options{Algorithm: algo, Epsilon: 0.15, Seed: 2, Parallelism: 2}
		s := treesched.NewSolver(opts)
		inst := buildInstance(t, cfg, 21)
		want, err := treesched.Solve(buildInstance(t, cfg, 21), opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			got, err := s.Solve(inst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Profit != want.Profit || got.DualBound != want.DualBound || got.Guarantee != want.Guarantee {
				t.Fatalf("%v trial %d: (%v,%v,%v), want (%v,%v,%v)", algo, trial,
					got.Profit, got.DualBound, got.Guarantee, want.Profit, want.DualBound, want.Guarantee)
			}
			if !slices.Equal(got.Assignments, want.Assignments) {
				t.Fatalf("%v trial %d: assignments diverged", algo, trial)
			}
		}
	}
}

// TestSessionMatchesEngineScratch asserts the strongest session property:
// the session's solve is bitwise identical to running the engine over its
// current items prepared from scratch.
func TestSessionMatchesEngineScratch(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 6, Parallelism: 3}
	s := treesched.NewSolver(opts)
	inst := buildInstance(t, workload.TreeConfig{
		Vertices: 28, Trees: 3, Demands: 20, ProfitRatio: 8,
	}, 31)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	live := make([]int, 20)
	for i := range live {
		live[i] = i
	}
	for round := 0; round < 4; round++ {
		var c treesched.Churn
		var kept []int
		for _, id := range live {
			if rng.Intn(5) == 0 {
				c.Remove = append(c.Remove, id)
			} else {
				kept = append(kept, id)
			}
		}
		for i := 0; i < 3; i++ {
			u, v := rng.Intn(28), rng.Intn(28)
			if u == v {
				v = (v + 1) % 28
			}
			c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*3})
		}
		ids, err := sess.Update(c)
		if err != nil {
			t.Fatal(err)
		}
		live = append(kept, ids...)

		got, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// Scratch engine run over the session's own items.
		items := treesched.SessionItems(sess)
		for i := range items {
			items[i].ID = i
		}
		eres, err := engine.Prepare(items).Solve(engine.Config{
			Mode: engine.Unit, Epsilon: opts.Epsilon, Seed: opts.Seed,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Profit != eres.Profit || got.DualBound != eres.Bound {
			t.Fatalf("round %d: session (%v,%v), scratch engine (%v,%v)",
				round, got.Profit, got.DualBound, eres.Profit, eres.Bound)
		}
		if len(got.Assignments) != len(eres.Selected) {
			t.Fatalf("round %d: %d assignments, scratch selected %d", round, len(got.Assignments), len(eres.Selected))
		}
		for i, id := range eres.Selected {
			if got.Assignments[i].Demand != items[id].Demand || got.Assignments[i].Network != items[id].Resource {
				t.Fatalf("round %d: assignment %d diverged", round, i)
			}
		}
	}
}

// TestSessionWarmStats pins the session-level warm-start accounting
// exactly: a cold first solve resolving every component, a steady-state
// repeat replaying all of them, and a component-local churn round re-running
// only the touched component.
func TestSessionWarmStats(t *testing.T) {
	cfg := workload.TreeConfig{
		Vertices: 64, Trees: 8, Demands: 48, ProfitRatio: 8,
		AccessMin: 1, AccessMax: 1, // disjoint fleet: many components
	}
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 11, Parallelism: 4})
	inst := buildInstance(t, cfg, 23)
	sess, err := s.Session(inst)
	if err != nil {
		t.Fatal(err)
	}

	_, items, _, err := sess.SolveWithItems()
	if err != nil {
		t.Fatal(err)
	}
	comps := len(engine.Prepare(items.Items()).Components())
	if comps < 2 {
		t.Fatalf("fleet instance decomposed into %d components; test needs several", comps)
	}
	st := sess.Stats()
	if st.WarmSolves != 0 || st.ColdSolves != 1 || st.ComponentsReplayed != 0 || st.ComponentsResolved != comps {
		t.Fatalf("after first solve: %+v, want cold 1 / resolved %d", st, comps)
	}

	// Steady state: no churn, everything replays.
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.WarmSolves != 1 || st.ColdSolves != 1 || st.ComponentsReplayed != comps || st.ComponentsResolved != comps {
		t.Fatalf("after repeat solve: %+v, want warm 1 / replayed %d", st, comps)
	}

	// Component-local churn: retire demand 0 and submit an identical demand
	// (same endpoints, profit, height and access). The arrival re-uses the
	// retired item slot and path, so the conflict decomposition is unchanged
	// and exactly one component — the one whose owner id changed — re-runs.
	rng := rand.New(rand.NewSource(23))
	gen, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	d0 := gen.Demands[0]
	if _, err := sess.Update(treesched.Churn{
		Remove: []int{0},
		Add:    []treesched.NewDemand{{U: d0.U, V: d0.V, Profit: d0.Profit, Height: d0.Height, Access: d0.Access}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.WarmSolves != 2 || st.ColdSolves != 1 ||
		st.ComponentsReplayed != comps+(comps-1) || st.ComponentsResolved != comps+1 {
		t.Fatalf("after local churn: %+v, want warm 2 / replayed %d / resolved %d",
			st, comps+(comps-1), comps+1)
	}
	if st.WarmSolves+st.ColdSolves != st.Solves {
		t.Fatalf("solves unaccounted: %+v", st)
	}
}

// TestSessionArrivalItemsMatchScratch checks that an arriving demand yields
// exactly the item a from-scratch build of the same demand set would: same
// demand, network, group, profit, height, path and critical set, field by
// field. Only the item id, a position Apply assigns, may differ.
func TestSessionArrivalItemsMatchScratch(t *testing.T) {
	cfg := workload.TreeConfig{Vertices: 48, Trees: 3, Demands: 30, ProfitRatio: 8, AccessMin: 1, AccessMax: 3}
	full, err := workload.RandomTreeInstance(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	const initial = 20
	inst := publicInstance(t, full, full.Demands[:initial])
	sess, err := treesched.NewSolver(treesched.Options{Algorithm: treesched.DistributedUnit}).Session(inst)
	if err != nil {
		t.Fatal(err)
	}
	c := treesched.Churn{Remove: []int{0, 7}}
	for _, d := range full.Demands[initial:] {
		c.Add = append(c.Add, treesched.NewDemand{U: d.U, V: d.V, Profit: d.Profit, Height: d.Height, Access: d.Access})
	}
	ids, err := sess.Update(c)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != initial {
		t.Fatalf("first arrival got id %d, want %d", ids[0], initial)
	}
	// Session ids continue the instance's, so the full instance built from
	// scratch names every arrival by the same demand id.
	scratch, err := engine.BuildTreeItems(full, engine.IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := func(items []engine.Item) []engine.Item {
		var out []engine.Item
		for _, it := range items {
			if it.Demand >= initial {
				it.ID = 0
				out = append(out, it)
			}
		}
		return out
	}
	got, want := arrivals(treesched.SessionItems(sess)), arrivals(scratch)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d arrival items, scratch %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("arrival item %d\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
