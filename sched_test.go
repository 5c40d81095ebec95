package treesched_test

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	treesched "treesched"
)

// paperTree builds the Figure 6 example tree on the public API.
func paperTree(t *testing.T) (*treesched.Instance, int) {
	t.Helper()
	inst := treesched.NewInstance(15)
	tid, err := inst.AddTree([][2]int{
		{0, 1}, {1, 3}, {1, 4}, {4, 7}, {4, 8}, {7, 12}, {8, 11},
		{0, 5}, {5, 9}, {5, 10}, {0, 13}, {13, 2}, {2, 6}, {13, 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, tid
}

func TestSolveUnitTree(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid)) // paper's <4,13>
	inst.AddDemand(9, 10, 3, treesched.Access(tid)) // disjoint branch
	inst.AddDemand(6, 14, 2, treesched.Access(tid)) // disjoint branch
	inst.AddDemand(3, 11, 4, treesched.Access(tid)) // conflicts with <4,13>
	res, err := treesched.Solve(inst, treesched.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profit <= 0 || len(res.Assignments) == 0 {
		t.Fatalf("empty solution: %+v", res)
	}
	// Demands 1 and 2 are conflict-free and must always fit alongside the
	// better of demands 0/3; optimum is 5+3+2 = 10.
	if res.DualBound < res.Profit-1e-9 {
		t.Errorf("dual bound %v below achieved profit %v", res.DualBound, res.Profit)
	}
	if res.Guarantee < 1 {
		t.Errorf("guarantee %v < 1", res.Guarantee)
	}
	exact, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Profit-10) > 1e-9 {
		t.Errorf("exact profit = %v, want 10", exact.Profit)
	}
	if res.Profit*res.Guarantee < exact.Profit-1e-9 {
		t.Errorf("approximation guarantee violated: %v * %v < %v", res.Profit, res.Guarantee, exact.Profit)
	}
}

func TestSolveSimulatedMatchesEngine(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid))
	inst.AddDemand(9, 10, 3, treesched.Access(tid))
	inst.AddDemand(12, 11, 4, treesched.Access(tid))
	plain, err := treesched.Solve(inst, treesched.Options{Seed: 7, Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := treesched.Solve(inst, treesched.Options{Seed: 7, Epsilon: 0.25, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Profit-sim.Profit) > 1e-9 {
		t.Fatalf("profits differ: %v vs %v", plain.Profit, sim.Profit)
	}
	if sim.Rounds == 0 || sim.Messages == 0 {
		t.Errorf("simulated run reported no communication: %+v", sim)
	}
	if plain.Rounds != 0 {
		t.Errorf("in-process run should not report rounds")
	}
}

func TestSolveArbitraryHeights(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid), treesched.Height(0.4))
	inst.AddDemand(3, 11, 4, treesched.Access(tid), treesched.Height(0.3))
	inst.AddDemand(9, 10, 3, treesched.Access(tid), treesched.Height(0.9))
	res, err := treesched.Solve(inst, treesched.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Heights 0.4+0.3 fit together on the shared edges; all three demands
	// are schedulable, so the optimum is 12.
	exact, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Profit-12) > 1e-9 {
		t.Errorf("exact = %v, want 12", exact.Profit)
	}
	if res.Profit*res.Guarantee < exact.Profit-1e-9 {
		t.Errorf("guarantee violated")
	}
	if res.DualBound < exact.Profit-1e-6 {
		t.Errorf("dual bound %v below optimum %v", res.DualBound, exact.Profit)
	}
}

func TestSolveSequentialTree(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid))
	inst.AddDemand(3, 11, 7, treesched.Access(tid))
	res, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.SequentialTree})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != 2 {
		t.Errorf("single tree sequential guarantee = %v, want 2", res.Guarantee)
	}
	if res.Profit < 7-1e-9 {
		// The two demands conflict; the richer one is worth 7 and a
		// 2-approximation on this instance must still find 7 (opt = 7,
		// any maximal solution picks one of them; bound allows 3.5 but
		// the stack order favors the last-raised, which is the richer).
		t.Logf("sequential picked profit %v (opt 7)", res.Profit)
	}
}

// TestEmptyInstanceBounds solves a tree instance with no demands under
// every algorithm, and a line instance with no jobs under every algorithm
// that takes lines, in process and, where the algorithm has one, over the
// simulator: each reports Profit 0 and DualBound 0, the optimum of an
// empty instance, and passes Verify or VerifyLine.
func TestEmptyInstanceBounds(t *testing.T) {
	tree, _ := paperTree(t)
	line := treesched.NewLineInstance(8, 2)
	for _, algo := range []treesched.Algorithm{treesched.Auto, treesched.DistributedUnit,
		treesched.DistributedArbitrary, treesched.SequentialTree, treesched.ExactSmall} {
		for _, simulate := range []bool{false, true} {
			if simulate && (algo == treesched.SequentialTree || algo == treesched.ExactSmall) {
				continue
			}
			opts := treesched.Options{Algorithm: algo, Simulate: simulate}
			res, err := treesched.Solve(tree, opts)
			if err != nil {
				t.Fatalf("%v simulate=%v: %v", algo, simulate, err)
			}
			if res.Profit != 0 || res.DualBound != 0 {
				t.Errorf("%v simulate=%v on no demands: profit %v, dual bound %v; want 0 and 0", algo, simulate, res.Profit, res.DualBound)
			}
			if err := treesched.Verify(tree, res); err != nil {
				t.Errorf("%v simulate=%v: %v", algo, simulate, err)
			}
			if algo == treesched.SequentialTree {
				continue // trees only
			}
			res, err = treesched.SolveLine(line, opts)
			if err != nil {
				t.Fatalf("%v simulate=%v, line: %v", algo, simulate, err)
			}
			if res.Profit != 0 || res.DualBound != 0 {
				t.Errorf("%v simulate=%v on no jobs: profit %v, dual bound %v; want 0 and 0", algo, simulate, res.Profit, res.DualBound)
			}
			if err := treesched.VerifyLine(line, res); err != nil {
				t.Errorf("%v simulate=%v, line: %v", algo, simulate, err)
			}
		}
	}
}

func TestSolveLineWindows(t *testing.T) {
	// Figure 1's scenario through the public API: A and B overlap, C is
	// disjoint; heights 0.5/0.7/0.4.
	line := treesched.NewLineInstance(12, 1)
	line.AddJob(2, 6, 5, 1, treesched.JobHeight(0.5))
	line.AddJob(4, 8, 5, 1, treesched.JobHeight(0.7))
	line.AddJob(9, 12, 4, 1, treesched.JobHeight(0.4))
	res, err := treesched.SolveLine(line, treesched.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// {A,C} or {B,C} are optimal (profit 2); {A,B} is infeasible.
	exact, err := treesched.SolveLine(line, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Profit-2) > 1e-9 {
		t.Errorf("exact = %v, want 2", exact.Profit)
	}
	if res.Profit*res.Guarantee < exact.Profit-1e-9 {
		t.Errorf("guarantee violated: %v * %v < %v", res.Profit, res.Guarantee, exact.Profit)
	}
	for _, a := range res.Assignments {
		if a.Start == 0 {
			t.Errorf("line assignment missing start: %+v", a)
		}
	}
}

func TestSolveLineUnitWindows(t *testing.T) {
	line := treesched.NewLineInstance(20, 2)
	line.AddJob(1, 4, 4, 6)
	line.AddJob(1, 6, 5, 4)
	line.AddJob(5, 11, 6, 5)
	line.AddJob(10, 13, 3, 2)
	res, err := treesched.SolveLine(line, treesched.Options{Seed: 4, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profit <= 0 {
		t.Fatal("no jobs scheduled on an easy instance")
	}
	// With two resources and generous windows, everything fits: opt = 17.
	exact, err := treesched.SolveLine(line, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Profit-17) > 1e-9 {
		t.Errorf("exact = %v, want 17", exact.Profit)
	}
}

func TestSolveValidationErrors(t *testing.T) {
	t.Run("too few vertices", func(t *testing.T) {
		inst := treesched.NewInstance(1)
		if _, err := inst.AddTree(nil); err == nil {
			t.Fatal("AddTree on invalid instance succeeded")
		}
	})
	t.Run("demand without trees", func(t *testing.T) {
		inst := treesched.NewInstance(4)
		inst.AddDemand(0, 1, 1)
		if _, err := treesched.Solve(inst, treesched.Options{}); err == nil {
			t.Fatal("Solve without networks succeeded")
		}
	})
	t.Run("bad edges", func(t *testing.T) {
		inst := treesched.NewInstance(4)
		if _, err := inst.AddTree([][2]int{{0, 1}}); err == nil {
			t.Fatal("non-spanning edge set accepted")
		}
	})
	t.Run("exact too large", func(t *testing.T) {
		inst := treesched.NewInstance(40)
		edges := make([][2]int, 0, 39)
		for v := 1; v < 40; v++ {
			edges = append(edges, [2]int{v - 1, v})
		}
		if _, err := inst.AddTree(edges); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			inst.AddDemand(i%39, i%39+1, 1)
		}
		_, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.ExactSmall})
		if err == nil || !strings.Contains(err.Error(), "at most") {
			t.Fatalf("want size-limit error, got %v", err)
		}
	})
	t.Run("sequential with heights", func(t *testing.T) {
		inst, tid := paperTree(t)
		inst.AddDemand(0, 1, 1, treesched.Access(tid), treesched.Height(0.5))
		if _, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.SequentialTree}); err == nil {
			t.Fatal("sequential with fractional heights accepted")
		}
	})
	t.Run("NaN epsilon", func(t *testing.T) {
		inst, tid := paperTree(t)
		inst.AddDemand(3, 12, 5, treesched.Access(tid))
		if res, err := treesched.Solve(inst, treesched.Options{Epsilon: math.NaN()}); err == nil {
			t.Fatalf("ε = NaN accepted (Guarantee %v)", res.Guarantee)
		}
	})
	t.Run("line repeated resource", func(t *testing.T) {
		line := treesched.NewLineInstance(5, 1)
		line.AddJob(1, 3, 2, 1, treesched.JobAccess(0, 0))
		if _, err := treesched.SolveLine(line, treesched.Options{}); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("want repeated-resource error, got %v", err)
		}
	})
	t.Run("simulate without a distributed algorithm", func(t *testing.T) {
		inst, tid := paperTree(t)
		inst.AddDemand(3, 12, 5, treesched.Access(tid))
		line := treesched.NewLineInstance(5, 1)
		line.AddJob(1, 3, 2, 1)
		for _, tc := range []struct {
			name  string
			solve func() (*treesched.Result, error)
		}{
			{"tree exact", func() (*treesched.Result, error) {
				return treesched.Solve(inst, treesched.Options{Algorithm: treesched.ExactSmall, Simulate: true})
			}},
			{"tree sequential", func() (*treesched.Result, error) {
				return treesched.Solve(inst, treesched.Options{Algorithm: treesched.SequentialTree, Simulate: true})
			}},
			{"line exact", func() (*treesched.Result, error) {
				return treesched.SolveLine(line, treesched.Options{Algorithm: treesched.ExactSmall, Simulate: true})
			}},
		} {
			if _, err := tc.solve(); err == nil || !strings.Contains(err.Error(), "Simulate") {
				t.Errorf("%s: got %v, want an error naming Simulate", tc.name, err)
			}
		}
	})
	t.Run("line sequential", func(t *testing.T) {
		line := treesched.NewLineInstance(5, 1)
		line.AddJob(1, 3, 2, 1)
		if _, err := treesched.SolveLine(line, treesched.Options{Algorithm: treesched.SequentialTree}); err == nil {
			t.Fatal("sequential on line accepted")
		}
	})
}

func TestAutoAlgorithmSelection(t *testing.T) {
	inst, tid := paperTree(t)
	inst.AddDemand(3, 12, 5, treesched.Access(tid))
	unitRes, err := treesched.Solve(inst, treesched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unit heights → (∆+1)/(1-ε) guarantee with ∆ ≤ 6: at most 7/0.9.
	if unitRes.Guarantee > 7/0.9+1e-9 {
		t.Errorf("unit guarantee = %v, want ≤ %v", unitRes.Guarantee, 7/0.9)
	}

	inst2, tid2 := paperTree(t)
	inst2.AddDemand(3, 12, 5, treesched.Access(tid2), treesched.Height(0.25))
	arbRes, err := treesched.Solve(inst2, treesched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if arbRes.Guarantee <= unitRes.Guarantee {
		t.Errorf("arbitrary-height guarantee %v should exceed unit %v", arbRes.Guarantee, unitRes.Guarantee)
	}
}

// TestSolveLineSparseSlotsAllocateLittle: two jobs at opposite ends of a
// 2²⁶-slot line touch a handful of slot ids. The dense dual index sizes
// itself by the paths it interns, never by the slot ids, so the solve
// allocates under 1 MiB and returns the schedule and bound it always has.
func TestSolveLineSparseSlotsAllocateLittle(t *testing.T) {
	const slots = 1 << 26
	line := treesched.NewLineInstance(slots, 1)
	line.AddJob(1, 3, 2, 3)
	line.AddJob(slots-2, slots, 2, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := treesched.SolveLine(line, treesched.Options{Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("solve allocated %d bytes, want under 1 MiB", grew)
	}
	want := []treesched.Assignment{{Demand: 0, Network: 0, Start: 2}, {Demand: 1, Network: 0, Start: slots - 2}}
	if res.Profit != 8 || res.DualBound != 32.0/3 || !reflect.DeepEqual(res.Assignments, want) {
		t.Errorf("profit %v, bound %v, assignments %+v; want 8, %v, %+v", res.Profit, res.DualBound, res.Assignments, 32.0/3, want)
	}
}

// TestAccessListsAreCopied: AddDemand and AddJob keep their own copy of an
// access list, so reusing the caller's slice for the next demand or job
// changes none already added.
func TestAccessListsAreCopied(t *testing.T) {
	inst, t0 := paperTree(t)
	t1, err := inst.AddTree([][2]int{
		{0, 1}, {1, 3}, {1, 4}, {4, 7}, {4, 8}, {7, 12}, {8, 11},
		{0, 5}, {5, 9}, {5, 10}, {0, 13}, {13, 2}, {2, 6}, {13, 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	nets := []int{t0}
	inst.AddDemand(3, 12, 5, treesched.Access(nets...))
	nets[0] = t1
	inst.AddDemand(3, 12, 4, treesched.Access(nets...))
	nets[0] = t0
	res, err := treesched.Solve(inst, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	// On their own networks the two demands do not conflict.
	want := []treesched.Assignment{{Demand: 0, Network: t0}, {Demand: 1, Network: t1}}
	if !reflect.DeepEqual(res.Assignments, want) {
		t.Errorf("tree assignments %+v, want %+v", res.Assignments, want)
	}

	line := treesched.NewLineInstance(4, 2)
	resources := []int{0}
	line.AddJob(1, 4, 4, 6, treesched.JobAccess(resources...))
	resources[0] = 1
	line.AddJob(1, 4, 4, 5, treesched.JobAccess(resources...))
	resources[0] = 0
	lres, err := treesched.SolveLine(line, treesched.Options{Algorithm: treesched.ExactSmall})
	if err != nil {
		t.Fatal(err)
	}
	// Each job fills the whole line, so both fit only on different resources.
	lwant := []treesched.Assignment{{Demand: 0, Network: 0, Start: 1}, {Demand: 1, Network: 1, Start: 1}}
	if !reflect.DeepEqual(lres.Assignments, lwant) {
		t.Errorf("line assignments %+v, want %+v", lres.Assignments, lwant)
	}
}
