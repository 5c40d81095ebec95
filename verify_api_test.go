package treesched_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	treesched "treesched"
	"treesched/internal/dist"
	"treesched/internal/engine"
)

// randomAPIInstance builds a random instance through the public API.
func randomAPIInstance(t *testing.T, seed int64, heights bool) *treesched.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 20
	inst := treesched.NewInstance(n)
	for q := 0; q < 2; q++ {
		perm := rng.Perm(n)
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{perm[rng.Intn(v)], perm[v]})
		}
		if _, err := inst.AddTree(edges); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		opts := []treesched.DemandOption{}
		if heights {
			opts = append(opts, treesched.Height(0.1+0.9*rng.Float64()))
		}
		inst.AddDemand(u, v, 1+8*rng.Float64(), opts...)
	}
	return inst
}

func TestVerifyAcceptsAllAlgorithms(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, heights := range []bool{false, true} {
			inst := randomAPIInstance(t, seed, heights)
			algos := []treesched.Algorithm{treesched.Auto}
			if !heights {
				algos = append(algos, treesched.DistributedUnit, treesched.SequentialTree)
			}
			for _, algo := range algos {
				res, err := treesched.Solve(inst, treesched.Options{Algorithm: algo, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d algo %v: %v", seed, algo, err)
				}
				if err := treesched.Verify(inst, res); err != nil {
					t.Fatalf("seed %d algo %v: %v", seed, algo, err)
				}
			}
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	inst := randomAPIInstance(t, 7, false)
	res, err := treesched.Solve(inst, treesched.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) == 0 {
		t.Skip("empty solution; cannot tamper")
	}
	t.Run("duplicate demand", func(t *testing.T) {
		bad := *res
		bad.Assignments = append(append([]treesched.Assignment(nil), res.Assignments...), res.Assignments[0])
		if err := treesched.Verify(inst, &bad); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("want duplicate error, got %v", err)
		}
	})
	t.Run("unknown demand", func(t *testing.T) {
		bad := *res
		bad.Assignments = append([]treesched.Assignment(nil), res.Assignments...)
		bad.Assignments[0].Demand = 999
		if err := treesched.Verify(inst, &bad); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("want unknown-demand error, got %v", err)
		}
	})
}

func TestVerifyDetectsOverCapacity(t *testing.T) {
	inst := treesched.NewInstance(3)
	tid, err := inst.AddTree([][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst.AddDemand(0, 2, 1, treesched.Access(tid))
	inst.AddDemand(0, 1, 1, treesched.Access(tid))
	forged := &treesched.Result{Assignments: []treesched.Assignment{
		{Demand: 0, Network: tid},
		{Demand: 1, Network: tid}, // shares edge (0,1) at unit height
	}}
	if err := treesched.Verify(inst, forged); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("want capacity error, got %v", err)
	}
}

func TestVerifyLine(t *testing.T) {
	line := treesched.NewLineInstance(20, 1)
	line.AddJob(1, 10, 4, 3)
	line.AddJob(5, 18, 6, 2, treesched.JobHeight(0.5))
	res, err := treesched.SolveLine(line, treesched.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := treesched.VerifyLine(line, res); err != nil {
		t.Fatal(err)
	}
	// Tamper: move a job outside its window.
	if len(res.Assignments) > 0 {
		bad := *res
		bad.Assignments = append([]treesched.Assignment(nil), res.Assignments...)
		bad.Assignments[0].Start = 15
		if err := treesched.VerifyLine(line, &bad); err == nil {
			// Start 15 may still be legal for job 1; force illegality.
			bad.Assignments[0].Start = 19
			if err := treesched.VerifyLine(line, &bad); err == nil {
				t.Fatal("out-of-window start accepted")
			}
		}
	}
}

// TestSolveArbitrarySimulated checks the §6 Simulate path, which runs each
// height class over the simulator: on instances with demands on both sides
// of h = 1/2 it must reproduce the in-process solve bitwise — assignments,
// profit, dual bound and guarantee.
func TestSolveArbitrarySimulated(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		inst := randomAPIInstance(t, seed, true)
		wide, narrow := 0, 0
		for _, h := range treesched.DemandHeights(inst) {
			if h > 0.5 {
				wide++
			} else {
				narrow++
			}
		}
		if wide == 0 || narrow == 0 {
			t.Fatalf("seed %d: %d wide and %d narrow demands, want both height classes", seed, wide, narrow)
		}
		opts := treesched.Options{Seed: seed, Epsilon: 0.3}
		plain, err := treesched.Solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Simulate = true
		sim, err := treesched.Solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sim.Assignments, plain.Assignments) {
			t.Errorf("seed %d: assignments differ:\nplain     %v\nsimulated %v", seed, plain.Assignments, sim.Assignments)
		}
		if math.Float64bits(sim.Profit) != math.Float64bits(plain.Profit) ||
			sim.DualBound != plain.DualBound || sim.Guarantee != plain.Guarantee {
			t.Errorf("seed %d: profit/bound/guarantee differ: plain (%v, %v, %v) simulated (%v, %v, %v)", seed,
				plain.Profit, plain.DualBound, plain.Guarantee, sim.Profit, sim.DualBound, sim.Guarantee)
		}
		if err := treesched.Verify(inst, sim); err != nil {
			t.Fatal(err)
		}
		if sim.Rounds == 0 {
			t.Errorf("seed %d: simulated arbitrary run reported no rounds", seed)
		}
		// The totals cover both height classes: each class's simulation,
		// run here on its own, adds its rounds and messages.
		items, cfg, err := treesched.EngineInput(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		var want treesched.Result
		classes := 0
		if _, _, err := engine.SolveHeightClasses(items, cfg, func(class []engine.Item, ccfg engine.Config) ([]int, error) {
			res, err := dist.Run(class, ccfg)
			if err != nil {
				return nil, err
			}
			classes++
			want.Rounds += res.Stats.Rounds
			want.Messages += res.Stats.Messages
			want.MaxMessageSize = max(want.MaxMessageSize, res.Stats.MaxMessageSize)
			return res.Selected, nil
		}); err != nil {
			t.Fatal(err)
		}
		if classes != 2 || sim.Rounds != want.Rounds || sim.Messages != want.Messages || sim.MaxMessageSize != want.MaxMessageSize {
			t.Errorf("seed %d: simulated rounds/messages/max size (%d, %d, %d), want the %d classes' (%d, %d, %d)", seed,
				sim.Rounds, sim.Messages, sim.MaxMessageSize, classes, want.Rounds, want.Messages, want.MaxMessageSize)
		}
	}
}

// TestScaleSoak runs the engine on a large instance end to end; guarded by
// -short so routine runs stay fast.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(99))
	const n = 1500
	inst := treesched.NewInstance(n)
	for q := 0; q < 3; q++ {
		perm := rng.Perm(n)
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{perm[rng.Intn(v)], perm[v]})
		}
		if _, err := inst.AddTree(edges); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		inst.AddDemand(u, v, 1+999*rng.Float64())
	}
	res, err := treesched.Solve(inst, treesched.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := treesched.Verify(inst, res); err != nil {
		t.Fatal(err)
	}
	if res.Profit <= 0 || res.DualBound < res.Profit {
		t.Fatalf("suspicious result: profit %v bound %v", res.Profit, res.DualBound)
	}
	t.Logf("soak: scheduled %d/1000 demands, profit %.0f of ≤ %.0f (quality ≥ %.2f)",
		len(res.Assignments), res.Profit, res.DualBound, res.Profit/res.DualBound)
}
