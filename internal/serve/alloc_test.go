package serve

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	treesched "treesched"
	"treesched/internal/workload"
)

// maxServeRoundAllocs and maxServeRoundBytes bound the allocations and
// the bytes allocated by one serve round at serve-fleet's shape
// (TestServeRoundAllocs). They are what was measured when the bounds were
// set, 87 and 41,721 B, the bytes rounded up to the next 100: the
// runtime's own allocations in the measured region (a channel waiter, a
// goroutine descriptor) vary from run to run by a few bytes per round. A
// change that allocates more per round must say why, and one that
// allocates less lowers them.
const (
	maxServeRoundAllocs = 87
	maxServeRoundBytes  = 41800
)

// raceEnabled reports whether the race detector is on (race_test.go).
var raceEnabled = false

// fleetChurn returns an instance of serve-fleet's shape — 16 networks of
// 256 vertices and 768 demands, each pinned to one network — and the churn
// of its first n rounds: round r departs the 8 oldest live demands of
// network r mod 16 and brings 8 new ones to it. Departures never take the
// demands holding the lowest and highest profit, and arrival profits fall
// strictly between them, so the profit range, and with it the warm cache's
// key, never moves.
func fleetChurn(t testing.TB, n int) (*treesched.Instance, []treesched.Churn) {
	t.Helper()
	const nets, vertices, demands, churn = 16, 256, 768, 8
	cfg := workload.TreeConfig{Vertices: vertices, Trees: nets, Demands: demands, ProfitRatio: 16, AccessMin: 1, AccessMax: 1}
	in, err := workload.RandomTreeInstance(cfg, rand.New(rand.NewSource(2301)))
	if err != nil {
		t.Fatal(err)
	}
	// in, built through the public builder.
	inst := testInstance(t, cfg, 2301)
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
	rng := rand.New(rand.NewSource(2302))
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
	return inst, rounds
}

// TestServeRoundAllocs gates the allocations and the bytes allocated per
// serve round at serve-fleet's shape (fleetChurn): one actor at
// Parallelism 1 on a one-worker registry, as serve-fleet hosts it, and one
// Submit of 8 departures and 8 arrivals on one network per round, which
// runs Update, the solve and the snapshot's publication on the pool's
// worker. (A standalone actor starts a goroutine per round, and whether
// the runtime has a free one to reuse varies from run to run.) Every
// round's churn is built before the measured region, and the 100 measured
// rounds follow 51 warm-up rounds, so every measured arrival takes a slot a
// departure freed.
func TestServeRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	// One P throughout, as testing.AllocsPerRun measures: pooled scratch a
	// warm-up round left on another P's private slot would be unreachable
	// to the measured rounds, and their refill would count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmup, runs = 51, 100
	inst, rounds := fleetChurn(t, warmup+runs)
	reg := NewRegistry(1)
	defer reg.Close()
	a, err := reg.Create("fleet", inst, treesched.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	round := func() {
		if _, _, err := a.Submit(rounds[k]); err != nil {
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		round()
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	if st := a.Stats().Session; st.Reprepares != 0 || st.ColdSolves != 1 {
		t.Fatalf("the measured rounds were not all warm: %+v", st)
	}
	if allocs > maxServeRoundAllocs || bytes > maxServeRoundBytes {
		t.Fatalf("a serve round allocates %d times and %d bytes, bounds %d and %d",
			allocs, bytes, maxServeRoundAllocs, maxServeRoundBytes)
	}
	t.Logf("a serve round allocates %d times and %d bytes (bounds %d and %d)",
		allocs, bytes, maxServeRoundAllocs, maxServeRoundBytes)
}
