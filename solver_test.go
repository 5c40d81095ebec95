package treesched_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/obs"
	"treesched/internal/workload"
)

// batchInstance builds a fresh multi-network instance for batch tests; the
// demand mix keeps several conflict components alive so the sharded
// pipeline actually shards.
func batchInstance(t *testing.T) *treesched.Instance {
	t.Helper()
	inst := treesched.NewInstance(12)
	for q := 0; q < 3; q++ {
		if _, err := inst.AddTree([][2]int{
			{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}, {5, 6}, {2, 7}, {7, 8}, {8, 9}, {9, 10}, {5, 11},
		}); err != nil {
			t.Fatal(err)
		}
	}
	profits := []float64{5, 3, 2, 4, 7, 1.5, 2.5, 6}
	ends := [][2]int{{0, 4}, {6, 11}, {3, 9}, {2, 10}, {1, 8}, {5, 7}, {4, 6}, {0, 10}}
	for i, e := range ends {
		inst.AddDemand(e[0], e[1], profits[i], treesched.Access(i%3))
	}
	return inst
}

// TestSolverMatchesSolve pins the caching Solver to the one-shot Solve:
// same options, same instance, identical results — and the decomposition
// cache is hit on repeated solves over the same networks.
func TestSolverMatchesSolve(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 3}
	want, err := treesched.Solve(batchInstance(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := treesched.NewSolver(opts)
	for round := 0; round < 3; round++ {
		got, err := s.Solve(batchInstance(t))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Profit != want.Profit || got.DualBound != want.DualBound ||
			!reflect.DeepEqual(got.Assignments, want.Assignments) {
			t.Fatalf("round %d: solver diverged from Solve: %+v vs %+v", round, got, want)
		}
	}
	// The three networks are structurally identical, so one cached layout
	// serves them all, across all rounds and distinct Instance values.
	if n := s.CachedLayouts(); n != 1 {
		t.Errorf("cached layouts = %d, want 1 (identical networks share one entry)", n)
	}
}

// TestSolverParallelismBitIdentical asserts the public batch surface keeps
// the engine's guarantee: any Parallelism produces the serial answer.
func TestSolverParallelismBitIdentical(t *testing.T) {
	serial, err := treesched.Solve(batchInstance(t), treesched.Options{Epsilon: 0.1, Seed: 5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 5, Parallelism: p})
		par, err := s.Solve(batchInstance(t))
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if par.Profit != serial.Profit || par.DualBound != serial.DualBound ||
			!reflect.DeepEqual(par.Assignments, serial.Assignments) {
			t.Fatalf("parallelism %d diverged: %+v vs %+v", p, par, serial)
		}
	}
}

// TestColdSolvesRunSerial pins the parallelism policy. A cold solve — the
// Solver's, the package-level Solve's, and both §6 height classes' — has no
// component outcomes to replay, so it runs the serial engine at every
// Parallelism: no component pass, no shard span, one lane per solve, and
// the same Result. A Session, whose warm-start cache replays components,
// still shards at Parallelism 2 and replays after a one-network Update;
// on a contended instance it runs the component pass once, finds one
// component, and solves serially from then on at Parallelism 2 too.
func TestColdSolvesRunSerial(t *testing.T) {
	mixed := func(cfg workload.TreeConfig) workload.TreeConfig {
		cfg.Heights = workload.MixedHeights
		return cfg
	}
	for _, shape := range []struct {
		name string
		cfg  workload.TreeConfig
	}{
		{"fleet", fleetCfg}, {"contended", contendedCfg},
		{"fleet/arbitrary", mixed(fleetCfg)}, {"contended/arbitrary", mixed(contendedCfg)},
	} {
		paths := []struct {
			name  string
			solve func(treesched.Options) (*treesched.Result, error)
		}{
			{"Solver.Solve", func(opts treesched.Options) (*treesched.Result, error) {
				return treesched.NewSolver(opts).Solve(buildInstance(t, shape.cfg, 5))
			}},
			{"Solve", func(opts treesched.Options) (*treesched.Result, error) {
				return treesched.Solve(buildInstance(t, shape.cfg, 5), opts)
			}},
		}
		var first *treesched.Result
		for _, path := range paths {
			var want *treesched.Result
			for _, p := range []int{1, 2, 8} {
				tag := fmt.Sprintf("%s %s p=%d", shape.name, path.name, p)
				rec := obs.NewRecorder()
				res, err := path.solve(treesched.Options{Epsilon: 0.1, Seed: 3, Parallelism: p, Recorder: rec})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				rep := rec.Report()
				for _, ph := range rep.Phases {
					if ph.Phase == engine.PhaseComponents.String() || ph.Phase == engine.PhaseShardSolve.String() {
						t.Errorf("%s: a cold solve emitted %d %s spans", tag, ph.Spans, ph.Phase)
					}
				}
				if rep.Solves == 0 || rep.IntraLanes != rep.Solves || rep.Components != 0 {
					t.Errorf("%s: %d solves, %d lanes, %d components; want one lane per solve and no components",
						tag, rep.Solves, rep.IntraLanes, rep.Components)
				}
				if want == nil {
					want = res
				} else if !reflect.DeepEqual(res, want) {
					t.Errorf("%s: result differs from p=1:\n%+v\n%+v", tag, res, want)
				}
			}
			if first == nil {
				first = want
			} else if want.Profit != first.Profit || want.DualBound != first.DualBound ||
				!reflect.DeepEqual(want.Assignments, first.Assignments) {
				t.Errorf("%s: %s differs from %s", shape.name, path.name, paths[0].name)
			}
		}
	}

	rec := obs.NewRecorder()
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 3, Parallelism: 2, Recorder: rec})
	sess, err := s.Session(buildInstance(t, fleetCfg, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if rep := rec.Report(); rep.Components <= 1 || rep.ShardWorkers != 2 {
		t.Errorf("session solve at p=2: %d components on %d shard workers, want a sharded solve on 2",
			rep.Components, rep.ShardWorkers)
	}
	if _, err := sess.Update(treesched.Churn{
		Add: []treesched.NewDemand{{U: 1, V: 3, Profit: 2, Access: []int{0}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.ComponentsReplayed == 0 {
		t.Errorf("session did not replay after a one-network update: %+v", st)
	}

	rec = obs.NewRecorder()
	s = treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 3, Parallelism: 2, Recorder: rec})
	if sess, err = s.Session(buildInstance(t, contendedCfg, 5)); err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if _, err := sess.Update(treesched.Churn{
				Add: []treesched.NewDemand{{U: 1, V: 3 + round, Profit: 2, Access: []int{0, 1}}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sess.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	spans := map[string]int64{}
	for _, ph := range rec.Report().Phases {
		spans[ph.Phase] = ph.Spans
	}
	if spans[engine.PhaseComponents.String()] != 1 || spans[engine.PhaseShardSolve.String()] != 0 ||
		spans[engine.PhaseSerialSolve.String()] != rounds {
		t.Errorf("contended session at p=2 over %d rounds: %v; want one components span, no shard spans, a serial solve per round",
			rounds, spans)
	}
}

// TestSolverPreparedCache pins repeated solves on one Solver: re-solving
// the same instance content returns the first result bit for bit, and a
// changed instance matches a one-shot Solve of it. (The Solver once cached
// prepared instances by content; it now prepares every solve.)
func TestSolverPreparedCache(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 7, Parallelism: 2}
	s := treesched.NewSolver(opts)
	first, err := s.Solve(batchInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := s.Solve(batchInstance(t))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Profit != first.Profit || got.DualBound != first.DualBound ||
			!reflect.DeepEqual(got.Assignments, first.Assignments) {
			t.Fatalf("round %d: repeated solve diverged: %+v vs %+v", round, got, first)
		}
	}

	// A changed instance must match a fresh one-shot Solve of it.
	changed := batchInstance(t)
	changed.AddDemand(0, 9, 9.5, treesched.Access(1))
	gotChanged, err := s.Solve(changed)
	if err != nil {
		t.Fatal(err)
	}
	changed2 := batchInstance(t)
	changed2.AddDemand(0, 9, 9.5, treesched.Access(1))
	wantChanged, err := treesched.Solve(changed2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotChanged.Profit != wantChanged.Profit ||
		!reflect.DeepEqual(gotChanged.Assignments, wantChanged.Assignments) {
		t.Errorf("changed-instance solve diverged from one-shot: %+v vs %+v", gotChanged, wantChanged)
	}
}

// TestSolverPreparedCacheConcurrent hammers Solvers from several
// goroutines, each solving its instance several times. The instances
// differ in size, so an arena two in-flight solves shared would be
// overwritten mid-solve, and they run every algorithm that prepares in an
// arena or reads its items: the unit engine solve, §6 (heights < 1),
// ExactSmall and Simulate. Every result must equal a one-shot Solve bit
// for bit. The main Solver's two instances lie on different networks and
// share only its decomposition cache, which must hold one entry per
// distinct network structure and count one lookup per network solved,
// with the prepared counters at zero. Then a held Result must stay
// deep-equal to its copy after later solves, larger and smaller.
func TestSolverPreparedCacheConcurrent(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 11, Parallelism: 2}
	// batchInstance's three networks share one structure; this instance's
	// two networks are a path and a star, neither of them that structure.
	other := func() *treesched.Instance {
		inst := treesched.NewInstance(12)
		var path, star [][2]int
		for v := 1; v < 12; v++ {
			path = append(path, [2]int{v - 1, v})
			star = append(star, [2]int{0, v})
		}
		for _, edges := range [][][2]int{path, star} {
			if _, err := inst.AddTree(edges); err != nil {
				t.Fatal(err)
			}
		}
		for i, e := range [][2]int{{0, 11}, {3, 7}, {5, 9}, {1, 4}, {2, 10}, {6, 8}} {
			inst.AddDemand(e[0], e[1], float64(2+i%3))
		}
		return inst
	}
	generated := func(cfg workload.TreeConfig, seed int64) func() *treesched.Instance {
		return func() *treesched.Instance { return buildInstance(t, cfg, seed) }
	}
	contended := workContended
	contended.Demands = 96
	mixed := workload.TreeConfig{Vertices: 64, Trees: 2, Demands: 48, ProfitRatio: 8, Heights: workload.MixedHeights}
	small := workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 4, AccessMax: 1}
	cases := []struct {
		build func() *treesched.Instance
		opts  treesched.Options
		trees int // networks per solve, counted on the main Solver
	}{
		{func() *treesched.Instance { return batchInstance(t) }, opts, 3},
		{other, opts, 2},
		{generated(contended, 2), treesched.Options{Seed: 3, Parallelism: 1}, 0},
		{generated(mixed, 4), treesched.Options{Algorithm: treesched.DistributedArbitrary, Seed: 5}, 0},
		{generated(small, 6), treesched.Options{Algorithm: treesched.ExactSmall}, 0},
		{generated(workFleet, 8), treesched.Options{Simulate: true, Seed: 7, Parallelism: 1}, 0},
	}
	const structures = 3
	want := make([]*treesched.Result, len(cases))
	solvers := make([]*treesched.Solver, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = treesched.Solve(c.build(), c.opts); err != nil {
			t.Fatal(err)
		}
		solvers[i] = treesched.NewSolver(c.opts)
	}
	solvers[1] = solvers[0] // the main Solver

	const workers, rounds = 12, 8
	results := make([][]*treesched.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	lookups := uint64(0)
	for w := 0; w < workers; w++ {
		c := w % len(cases)
		lookups += rounds * uint64(cases[c].trees)
		inst := cases[c].build() // builders may t.Fatal: keep them on this goroutine
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for range rounds {
				res, err := solvers[c].Solve(inst)
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = append(results[w], res)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for r, res := range results[w] {
			if !reflect.DeepEqual(res, want[w%len(cases)]) || math.Float64bits(res.Profit) != math.Float64bits(want[w%len(cases)].Profit) {
				t.Errorf("worker %d round %d diverged from one-shot Solve: %+v vs %+v", w, r, res, want[w%len(cases)])
			}
		}
	}
	st := solvers[0].CacheStats()
	if st.Layouts.Len != structures || st.Layouts.Hits+st.Layouts.Misses != lookups {
		t.Errorf("layouts %+v: want %d entries and %d lookups", st.Layouts, structures, lookups)
	}
	if st.Prepared != (treesched.CacheCounters{}) || st.Arbitrary != (treesched.CacheCounters{}) {
		t.Errorf("prepared counters moved: %+v", st)
	}

	// A held Result owns its storage: solves after it, larger and smaller,
	// reuse the arena its solve prepared in, and must not reach it.
	s := treesched.NewSolver(treesched.Options{Seed: 3, Parallelism: 1})
	held, err := s.Solve(buildInstance(t, contended, 9))
	if err != nil {
		t.Fatal(err)
	}
	heldCopy := *held
	heldCopy.Assignments = slices.Clone(held.Assignments)
	for _, demands := range []int{384, 24} {
		shape := workContended
		shape.Demands = demands
		if _, err := s.Solve(buildInstance(t, shape, int64(demands))); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*held, heldCopy) {
			t.Fatalf("a solve of %d demands changed a held Result", demands)
		}
	}
}

// TestSolverSimulateUncached: the Simulate path measures real messages and
// must still agree with the engine.
func TestSolverSimulateUncached(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.2, Seed: 2, Simulate: true}
	s := treesched.NewSolver(opts)
	sim, err := s.Solve(batchInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Rounds == 0 || sim.Messages == 0 {
		t.Errorf("simulated solve reported no communication: %+v", sim)
	}
	plain, err := treesched.Solve(batchInstance(t), treesched.Options{Epsilon: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Profit != plain.Profit {
		t.Errorf("simulate profit %v != engine profit %v", sim.Profit, plain.Profit)
	}
}

// TestSingleStageGuarantee is the regression test for the ablation
// schedule's reported factor: the Panconesi–Sozio-style single stage proves
// only λ = 1/(5+ε), so its Guarantee must carry the 5+ε factor rather than
// the multi-stage ladder's 1/(1-ε).
func TestSingleStageGuarantee(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid))
	inst.AddDemand(9, 10, 3, treesched.Access(tid))
	inst.AddDemand(3, 11, 4, treesched.Access(tid))

	multi, err := treesched.Solve(inst, treesched.Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := treesched.Solve(inst, treesched.Options{Epsilon: 0.1, Seed: 1, SingleStage: true})
	if err != nil {
		t.Fatal(err)
	}
	// (Δ+1)·(5+ε) vs (Δ+1)/(1-ε): same Δ, so the ratio must be exactly
	// (5+ε)(1-ε).
	wantRatio := (5 + 0.1) * (1 - 0.1)
	if ratio := single.Guarantee / multi.Guarantee; math.Abs(ratio-wantRatio) > 1e-9 {
		t.Errorf("single/multi guarantee ratio = %v, want %v", ratio, wantRatio)
	}
	if single.Guarantee <= multi.Guarantee {
		t.Errorf("single-stage guarantee %v not weaker than multi-stage %v", single.Guarantee, multi.Guarantee)
	}
	// The reported factor must still be honest against the exact optimum.
	exact, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	if single.Profit*single.Guarantee < exact.Profit-1e-9 {
		t.Errorf("single-stage guarantee violated: %v * %v < %v", single.Profit, single.Guarantee, exact.Profit)
	}
}

// TestNarrowLadderBounded solves one demand of height 1e-9, which Auto
// resolves to §6's narrow rule. Its stage ladder would be about 2.3e10
// stages long (ξ = C/(C+1e-9)), which the plan used to count one by one
// before allocating a threshold for each; now it refuses the plan with an
// error at once.
func TestNarrowLadderBounded(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid), treesched.Height(1e-9))
	start := time.Now()
	_, err := treesched.NewSolver(treesched.Options{Seed: 1}).Solve(inst)
	if err == nil || !strings.Contains(err.Error(), "stage ladder") {
		t.Fatalf("solve of a 1e-9 height: err = %v, want the stage ladder's bound", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("the refusal took %v", d)
	}
	t.Log(err)
}
