package treesched_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/workload"
)

// FuzzSessionChurn drives the public Session API through fuzz-chosen churn
// on small fleets: 2–6 networks and demands that may use 1–3 of them, so
// one departure removes several items, and components merge and split as
// demands come and go. The networks share one 48-vertex tree and every
// demand spans at most 3 of its edges, so the conflict graph splits into
// many components and the session's solves shard and replay. Each byte of
// steps sets one round's mix of departures and arrivals; rounds go on past
// the session's first compaction. After every Update, SolveWithItems must
// equal a solve of the engine over the session's items prepared from
// scratch, in the bits of Profit and DualBound and in the assignments, and
// its item view must hold exactly the session's items.
func FuzzSessionChurn(f *testing.F) {
	f.Add(int64(1), byte(0), []byte{0x31, 0x07, 0xf0})
	f.Add(int64(5), byte(7), []byte{0xff, 0x10})
	f.Add(int64(9), byte(14), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape byte, steps []byte) {
		const vertices, span, maxLive, maxRounds = 48, 3, 12, 400
		if len(steps) > 64 {
			steps = steps[:64]
		}
		nets := 2 + int(shape%5)
		opts := treesched.Options{Epsilon: 0.1, Seed: seed, Parallelism: 1 + int(shape/5%3)}
		rng := rand.New(rand.NewSource(seed))
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: vertices, Trees: nets, Demands: 8, ProfitRatio: 8, AccessMin: 1, AccessMax: min(3, nets), MaxDist: span,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		tree := in.Trees[0] // MaxDist holds on tree 0
		for q := range in.Trees {
			in.Trees[q] = tree
		}
		inst := publicInstance(t, in, in.Demands)
		_, cfg, err := treesched.EngineInput(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := treesched.NewSolver(opts).Session(inst)
		if err != nil {
			t.Fatal(err)
		}
		live := make([]int, len(in.Demands))
		for i := range live {
			live[i] = i
		}
		round := 0
		for ; round < len(steps) || sess.Stats().Reprepares == 0; round++ {
			if round == maxRounds {
				t.Fatalf("no compaction in %d rounds", round)
			}
			b := byte(0x2b)
			if len(steps) > 0 {
				b = steps[round%len(steps)]
			}
			// At least one arrival a round, so a compaction comes; the
			// live set stays small, so that it comes soon.
			arrivals := 1 + int(b>>3&7)
			departures := max(int(b&7), len(live)+arrivals-maxLive)
			departures = min(departures, len(live))
			var c treesched.Churn
			perm := rng.Perm(len(live))
			gone := make(map[int]bool, departures)
			for _, k := range perm[:departures] {
				c.Remove = append(c.Remove, live[k])
				gone[live[k]] = true
			}
			for range arrivals {
				// A walk of 1–3 edges that does not end where it began:
				// it goes on while back at u, and a walk on a tree
				// returns to u only after an even number of steps.
				u := rng.Intn(vertices)
				v := u
				for step := 0; step < span && (step == 0 || v == u || rng.Intn(2) == 0); step++ {
					adj := tree.Adj(v)
					v = adj[rng.Intn(len(adj))]
				}
				access := rng.Perm(nets)[:1+rng.Intn(min(3, nets))]
				c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + 7*rng.Float64(), Access: access})
			}
			ids, err := sess.Update(c)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			kept := live[:0]
			for _, id := range live {
				if !gone[id] {
					kept = append(kept, id)
				}
			}
			live = append(kept, ids...)

			got, view, _, err := sess.SolveWithItems()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			items := treesched.SessionItems(sess)
			if !reflect.DeepEqual(view.Items(), items) {
				t.Fatalf("round %d: the solve's item view differs from the session's items", round)
			}
			for i := range items {
				items[i].ID = i
			}
			want, err := engine.Prepare(items).Solve(cfg, 1)
			if err != nil {
				t.Fatalf("round %d: scratch: %v", round, err)
			}
			if math.Float64bits(got.Profit) != math.Float64bits(want.Profit) ||
				math.Float64bits(got.DualBound) != math.Float64bits(want.Bound) {
				t.Fatalf("round %d: session (%v, %v), scratch (%v, %v)", round, got.Profit, got.DualBound, want.Profit, want.Bound)
			}
			if len(got.Assignments) != len(want.Selected) {
				t.Fatalf("round %d: %d assignments, scratch selects %d", round, len(got.Assignments), len(want.Selected))
			}
			for i, id := range want.Selected {
				if a := got.Assignments[i]; a.Demand != items[id].Demand || a.Network != items[id].Resource {
					t.Fatalf("round %d: assignment %d is %+v, scratch (%d, %d)", round, i, a, items[id].Demand, items[id].Resource)
				}
			}
		}
	})
}
