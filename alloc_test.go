package treesched_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	treesched "treesched"
	"treesched/internal/workload"
)

// maxSessionRoundAllocs and maxSessionRoundBytes bound the allocations and
// the bytes allocated by one warm Session round at serve-fleet's shape
// (TestSessionRoundAllocs). They are what was measured when the bounds
// were set, 75 and 34,114 or 34,484 B, the bytes rounded up to the next
// 100: the runtime's own allocations in the measured region vary from run
// to run by a few bytes per round. A change that allocates more per round
// must say why, and one that allocates less lowers them.
const (
	maxSessionRoundAllocs = 75
	maxSessionRoundBytes  = 34500
)

// maxColdSolveAllocs and maxColdSolveBytes bound the allocations and the
// bytes allocated by one cold Solver.Solve at solve-contended's shape
// (TestColdSolveAllocs). They are what was measured when the bounds were
// set, 151 and 425,984 B, the bytes rounded up to the next 100, as above.
const (
	maxColdSolveAllocs = 151
	maxColdSolveBytes  = 426000
)

// fleetChurn returns a Session over a fleet of nets networks of 256
// vertices with 48 demands per network, each demand pinned to one network
// (at nets = 16, serve-fleet's shape: 768 demands), and the churn of its
// first n rounds: round r departs the 8 oldest live demands of network
// r mod nets and brings 8 new ones to it. Departures never take the
// demands holding the lowest and highest profit, and arrival profits fall
// strictly between them, so the profit range, and with it the warm
// cache's key, never moves.
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
// warm Session round at serve-fleet's shape (fleetChurn): Update with 8
// departures and 8 arrivals on one network, then SolveWithItems, at
// Parallelism 1. Every round's churn is built before the measured region,
// and the 100 measured rounds follow 51 warm-up rounds, so every measured
// arrival takes a slot a departure freed.
func TestSessionRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	// One P throughout, as testing.AllocsPerRun measures: pooled scratch
	// a warm-up round left on another P's private slot would be
	// unreachable to the measured rounds, and their refill would count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmup, runs = 51, 100
	sess, rounds := fleetChurn(t, treesched.Options{Parallelism: 1}, 16, warmup+runs)
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
		t.Fatalf("the measured rounds were not all warm: %+v", st)
	}
	if allocs > maxSessionRoundAllocs || bytes > maxSessionRoundBytes {
		t.Fatalf("a warm Session round allocates %d times and %d bytes, bounds %d and %d",
			allocs, bytes, maxSessionRoundAllocs, maxSessionRoundBytes)
	}
	t.Logf("a warm Session round allocates %d times and %d bytes (bounds %d and %d)",
		allocs, bytes, maxSessionRoundAllocs, maxSessionRoundBytes)
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
// cold Solver.Solve of a fixed-seed instance at solve-contended's shape
// (workContended: 3 networks of 256 vertices, 384 demands, access 1–3), at
// Parallelism 1. A first solve fills the Solver's decomposition cache
// before the measured region, as perfbench's warm-up does.
func TestColdSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	inst := buildInstance(t, workContended, 1)
	s := treesched.NewSolver(treesched.Options{Parallelism: 1})
	solve := func() {
		if _, err := s.Solve(inst); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes := perRun(runs, solve)
	if allocs > maxColdSolveAllocs || bytes > maxColdSolveBytes {
		t.Fatalf("a cold solve allocates %d times and %d bytes, bounds %d and %d",
			allocs, bytes, maxColdSolveAllocs, maxColdSolveBytes)
	}
	t.Logf("a cold solve allocates %d times and %d bytes (bounds %d and %d)",
		allocs, bytes, maxColdSolveAllocs, maxColdSolveBytes)
}
