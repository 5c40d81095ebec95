package treesched_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	treesched "treesched"
	"treesched/internal/workload"
)

// sessionRoundBounds bound the allocations and the bytes allocated by one
// warm Session round (TestSessionRoundAllocs): at serve-fleet's shape, 16
// networks, and at 256. They are what was measured under go test ./...
// when the bounds were set: 28 allocations at both sizes, so a round's
// allocations do not grow with the fleet, and 15,543 or 15,912 B at 16
// networks and 76,342 B at 256, most of it the Result's selection and
// assignments, which do grow. The runtime's own allocations in the
// measured region vary from run to run, by up to 697 B over 100 rounds at
// 16 networks (more under load from other processes), so each bound adds
// that much to the most measured, rounded up to the next 100. A change
// that allocates more per round must say why, and one that allocates less
// lowers them.
var sessionRoundBounds = []struct {
	nets          int
	allocs, bytes uint64
}{
	{16, 28, 16700},
	{256, 28, 77100},
}

// maxColdSolveAllocs and maxColdSolveBytes bound the allocations and the
// bytes allocated by one cold Solver.Solve at solve-contended's shape
// (TestColdSolveAllocs), in either of its cases. They are what was
// measured when the bounds were set, 6 and 2,408 B with the generated
// access and 7 and 2,960 B with the default, the bytes rounded up to the
// next 100, as above: the root and engine Results with their Assignments
// and Selected, the model instance, the decomposition list, and the
// shared default access.
const (
	maxColdSolveAllocs = 7
	maxColdSolveBytes  = 3000
)

// fleetChurn returns a Session over a fleet of nets networks of 256
// vertices with 48 demands per network, each demand pinned to one network
// (at nets = 16, serve-fleet's shape: 768 demands), and the churn of its
// first n rounds: round r departs the 8 oldest live demands of network
// r mod nets and brings 8 new ones to it. Departures never take the
// demands holding the lowest and highest profit, and arrival profits fall
// strictly between them, so the profit range never moves: no round
// gathers the plan statistics again or moves the step cap.
func fleetChurn(t testing.TB, opts treesched.Options, nets, n int) (*treesched.Session, []treesched.Churn) {
	t.Helper()
	const vertices, perNet, churn = 256, 48, 8
	demands := perNet * nets
	rng := rand.New(rand.NewSource(2301))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: vertices, Trees: nets, Demands: demands, ProfitRatio: 16, AccessMin: 1, AccessMax: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := treesched.NewSolver(opts).Session(publicInstance(t, in, in.Demands))
	if err != nil {
		t.Fatal(err)
	}
	fifo := make([][]int, nets) // per network the live ids, oldest first
	lo, hi := 0, 0              // the ids of the lowest and highest profit
	for _, d := range in.Demands {
		fifo[d.Access[0]] = append(fifo[d.Access[0]], d.ID)
		if d.Profit < in.Demands[lo].Profit {
			lo = d.ID
		}
		if d.Profit > in.Demands[hi].Profit {
			hi = d.ID
		}
	}
	pmin, pmax := in.Demands[lo].Profit, in.Demands[hi].Profit
	rounds := make([]treesched.Churn, n)
	next := demands
	for r := range rounds {
		q := r % nets
		var c treesched.Churn
		var rest []int
		for _, id := range fifo[q] {
			if len(c.Remove) < churn && id != lo && id != hi {
				c.Remove = append(c.Remove, id)
			} else {
				rest = append(rest, id)
			}
		}
		for range churn {
			u, v := rng.Intn(vertices), rng.Intn(vertices)
			if u == v {
				v = (v + 1) % vertices
			}
			p := pmin + (pmax-pmin)*(0.01+0.98*rng.Float64())
			c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: p, Access: []int{q}})
			rest = append(rest, next)
			next++
		}
		fifo[q], rounds[r] = rest, c
	}
	return sess, rounds
}

// raceEnabled reports whether the race detector is on (race_test.go).
var raceEnabled = false

// TestSessionRoundAllocs gates the allocations and the bytes allocated per
// warm Session round on fleets of the sizes sessionRoundBounds lists
// (fleetChurn): Update with 8 departures and 8 arrivals on one network,
// then SolveWithItems, at Parallelism 1. Every round's churn is built
// before the measured region, and the 100 measured rounds follow 51
// warm-up rounds, so every measured arrival takes a slot a departure
// freed.
func TestSessionRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	// One P throughout, as testing.AllocsPerRun measures: pooled scratch
	// a warm-up round left on another P's private slot would be
	// unreachable to the measured rounds, and their refill would count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range sessionRoundBounds {
		checkSessionRoundAllocs(t, row.nets, row.allocs, row.bytes)
	}
}

// checkSessionRoundAllocs measures one row of TestSessionRoundAllocs.
func checkSessionRoundAllocs(t *testing.T, nets int, maxAllocs, maxBytes uint64) {
	t.Helper()
	const warmup, runs = 51, 100
	sess, rounds := fleetChurn(t, treesched.Options{Parallelism: 1}, nets, warmup+runs)
	k := 0
	round := func() {
		if _, err := sess.Update(rounds[k]); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := sess.SolveWithItems(); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for k < warmup {
		round()
	}
	// A collection in the measured region can drop pooled scratch, whose
	// refill would count against the rounds, so collection is off while
	// measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes := perRun(runs, round)
	st := sess.Stats()
	if st.Reprepares != 0 || st.ColdSolves != 1 {
		t.Fatalf("%d networks: the measured rounds were not all warm: %+v", nets, st)
	}
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("%d networks: a warm Session round allocates %d times and %d bytes, bounds %d and %d",
			nets, allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("%d networks: a warm Session round allocates %d times and %d bytes (bounds %d and %d)",
		nets, allocs, bytes, maxAllocs, maxBytes)
}

// perRun returns the mean allocations and bytes allocated per call of f
// over runs calls, measured as testing.AllocsPerRun measures the first:
// from runtime.MemStats read around the calls, which the caller runs on
// one P.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestColdSolveAllocs gates the allocations and the bytes allocated per
// cold Solver.Solve at solve-contended's shape (workContended: 3 networks of
// 256 vertices, 384 demands, access 1–3), at Parallelism 1, and again with
// every demand left to the default access, all three networks. Each case
// solves 8 fresh instances round-robin, which differ in size as
// perfbench's fresh instances do, so the pooled arena's buffers resize
// between solves; a first pass over them fills the Solver's decomposition
// cache, as perfbench's warm-up does, before the measured region.
func TestColdSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const fresh, runs = 8, 96
	for _, tc := range []struct {
		name          string
		defaultAccess bool
	}{{"access", false}, {"default-access", true}} {
		t.Run(tc.name, func(t *testing.T) {
			insts := make([]*treesched.Instance, fresh)
			for i := range insts {
				in, err := workload.RandomTreeInstance(workContended, rand.New(rand.NewSource(int64(i+1))))
				if err != nil {
					t.Fatal(err)
				}
				if tc.defaultAccess {
					for j := range in.Demands {
						in.Demands[j].Access = nil
					}
				}
				insts[i] = publicInstance(t, in, in.Demands)
			}
			s := treesched.NewSolver(treesched.Options{Parallelism: 1})
			k := 0
			solve := func() {
				if _, err := s.Solve(insts[k%fresh]); err != nil {
					t.Fatal(err)
				}
				k++
			}
			for range fresh {
				solve()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs, bytes := perRun(runs, solve)
			if allocs > maxColdSolveAllocs || bytes > maxColdSolveBytes {
				t.Fatalf("a cold solve allocates %d times and %d bytes, bounds %d and %d",
					allocs, bytes, maxColdSolveAllocs, maxColdSolveBytes)
			}
			t.Logf("a cold solve allocates %d times and %d bytes (bounds %d and %d)",
				allocs, bytes, maxColdSolveAllocs, maxColdSolveBytes)
		})
	}
}

// TestUpdateDefaultAccessAllocs checks that arrivals left to the default
// access, every network, share one access list: an Update whose 8 arrivals
// name no network allocates as often as one whose arrivals all name one
// list of every network, built before the measured region. Two sessions
// over one instance of 3 networks run the same churn (the 8 oldest live
// demands depart, 8 arrive), one with each form of access.
func TestUpdateDefaultAccessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nets, vertices, demands, churn, warmup, runs = 3, 64, 48, 8, 8, 40
	rng := rand.New(rand.NewSource(31))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: vertices, Trees: nets, Demands: demands, ProfitRatio: 8,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// rounds[r] departs the 8 oldest live demands; its arrivals name no
	// network in implicit and every network in explicit.
	implicit, explicit := make([]treesched.Churn, warmup+runs), make([]treesched.Churn, warmup+runs)
	all := []int{0, 1, 2}
	live := make([]int, demands)
	for i := range live {
		live[i] = i
	}
	for r := range implicit {
		implicit[r].Remove, explicit[r].Remove, live = live[:churn], live[:churn], live[churn:]
		for range churn {
			u, v := rng.Intn(vertices), rng.Intn(vertices)
			if u == v {
				v = (v + 1) % vertices
			}
			d := treesched.NewDemand{U: u, V: v, Profit: 1 + 7*rng.Float64()}
			implicit[r].Add = append(implicit[r].Add, d)
			d.Access = all
			explicit[r].Add = append(explicit[r].Add, d)
			live = append(live, demands+r*churn+len(implicit[r].Add)-1)
		}
	}
	measure := func(rounds []treesched.Churn) uint64 {
		sess, err := treesched.NewSolver(treesched.Options{Parallelism: 1}).Session(publicInstance(t, in, in.Demands))
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		update := func() {
			if _, err := sess.Update(rounds[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		for k < warmup {
			update()
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs, _ := perRun(runs, update)
		return allocs
	}
	byDefault, named := measure(implicit), measure(explicit)
	if byDefault != named {
		t.Fatalf("an Update with default access allocates %d times, with one explicit list of every network %d", byDefault, named)
	}
	t.Logf("an Update allocates %d times with either access", byDefault)
}

// maxBuildAllocs bounds the allocations of building solve-contended's
// instance through the public builder (TestBuildInstanceAllocs): 3 trees
// of 256 vertices and 384 demands, each with its access list. It is what
// was measured when the bound was set: the trees' own allocations, and
// the demand list and the access slab each growing by appending, so a
// demand costs none of its own.
const maxBuildAllocs = 45

// TestBuildInstanceAllocs gates the allocations of building
// solve-contended's instance with NewInstance, AddTree and AddDemand with
// Access, as perfbench's solve-contended does for every op.
func TestBuildInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	in, err := workload.RandomTreeInstance(workContended, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	edges := make([][][2]int, len(in.Trees))
	for q, tr := range in.Trees {
		for _, e := range tr.Edges() {
			edges[q] = append(edges[q], [2]int{e.U, e.V})
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		inst := treesched.NewInstance(in.NumVertices)
		for _, es := range edges {
			if _, err := inst.AddTree(es); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range in.Demands {
			inst.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...))
		}
	})
	if allocs > maxBuildAllocs {
		t.Fatalf("building the instance allocates %v times, bound %d", allocs, maxBuildAllocs)
	}
	t.Logf("building the instance allocates %v times (bound %d)", allocs, maxBuildAllocs)
}
