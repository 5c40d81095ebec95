package treesched_test

import (
	"reflect"
	"testing"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/obs"
	"treesched/internal/workload"
)

// contendedCfg keeps every demand on both networks so the solve carries a
// real schedule: at Parallelism 1 the serial engine and the greedy pass are
// the whole pipeline, and the instrumented phases should cover nearly all
// of the solve span.
var contendedCfg = workload.TreeConfig{Vertices: 256, Trees: 2, Demands: 192, ProfitRatio: 16}

// fleetCfg splits into per-network components — the warm-start shape.
var fleetCfg = workload.TreeConfig{
	Vertices: 128, Trees: 8, Demands: 160, ProfitRatio: 16,
	AccessMin: 1, AccessMax: 1,
}

// TestSolveReportPhaseAccounting attaches a live recorder through the
// public Options seam (one-shot Solve, no Solver) and checks the span
// nesting discipline: phases inside a solve are disjoint, so they sum to at
// most the solve wall — and at Parallelism 1, where the serial engine and
// greedy pass are the whole solve, to at least half of it.
func TestSolveReportPhaseAccounting(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := treesched.Solve(buildInstance(t, contendedCfg, 7),
		treesched.Options{Epsilon: 0.1, Seed: 5, Parallelism: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profit <= 0 {
		t.Fatalf("degenerate solve: %+v", res)
	}
	rep := rec.Report()
	if rep.Solves != 1 {
		t.Fatalf("solves %d, want 1: %+v", rep.Solves, rep)
	}
	if rep.Wall <= 0 {
		t.Fatalf("no solve wall time: %+v", rep)
	}
	if rep.PhaseTotal(engine.PhasePrepare) <= 0 {
		t.Error("no prepare span through the one-shot Solve path")
	}
	inner := rep.PhaseTotal(engine.PhaseComponents) +
		rep.PhaseTotal(engine.PhaseShardSolve) +
		rep.PhaseTotal(engine.PhaseSerialSolve) +
		rep.PhaseTotal(engine.PhaseMerge) +
		rep.PhaseTotal(engine.PhaseGreedy)
	if inner > rep.Wall {
		t.Errorf("inner phases %v exceed solve wall %v: %+v", inner, rep.Wall, rep.Phases)
	}
	if inner < rep.Wall/2 {
		t.Errorf("inner phases %v cover under half the solve wall %v — a phase is missing: %+v",
			inner, rep.Wall, rep.Phases)
	}
	// One item per (demand, accessible network): at least one network each.
	if rep.Items < int64(contendedCfg.Demands) {
		t.Errorf("items counter %d, want ≥ %d", rep.Items, contendedCfg.Demands)
	}
	if rep.IntraLanes <= 0 {
		t.Errorf("missing intra-lane counter: %+v", rep)
	}
}

// TestSolveReportWarmReplay runs the warm-start steady state with a
// recorder attached: after churn touching one network of a fleet, the
// report window must show both replayed components (the cache serving the
// untouched networks) and resolved ones (the churned network re-running),
// plus the update/apply spans of the delta path.
func TestSolveReportWarmReplay(t *testing.T) {
	rec := obs.NewRecorder()
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: 9, Parallelism: 2, Recorder: rec})
	sess, err := s.Session(buildInstance(t, fleetCfg, 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil { // cold solve fills the cache
		t.Fatal(err)
	}
	rec.Reset() // start the steady-state window

	// Churn network 0 only: one arrival pinned there leaves the other
	// networks' components untouched.
	if _, err := sess.Update(treesched.Churn{
		Add: []treesched.NewDemand{{U: 1, V: 3, Profit: 2, Access: []int{0}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}

	rep := rec.Take()
	if rep.ComponentsReplayed <= 0 {
		t.Errorf("warm round replayed no components: %+v", rep)
	}
	if rep.ComponentsResolved <= 0 {
		t.Errorf("warm round re-solved no components (the churned one must): %+v", rep)
	}
	if ratio := rep.WarmHitRatio(); ratio <= 0 || ratio >= 1 {
		t.Errorf("warm hit ratio %v, want in (0, 1): %+v", ratio, rep)
	}
	if rep.GreedyTests <= 0 {
		t.Errorf("the re-solved component's greedy pass tested no items: %+v", rep)
	}
	if rep.PhaseTotal(engine.PhaseUpdate) <= 0 {
		t.Errorf("no update span: %+v", rep.Phases)
	}
	if rep.PhaseTotal(engine.PhaseApply) <= 0 {
		t.Errorf("no apply span: %+v", rep.Phases)
	}

	// Take delimited the window: a fresh report is empty until more work runs.
	if again := rec.Report(); again.Solves != 0 {
		t.Errorf("window not reset by Take: %+v", again)
	}
}

// TestRecorderBitwiseAcrossSessions is the top-level observe-never-steer
// proof: the same churn script, run with a recorder attached and without,
// across seeds × parallelism, must produce identical results every round.
func TestRecorderBitwiseAcrossSessions(t *testing.T) {
	churnScript := func(round int) treesched.Churn {
		return treesched.Churn{
			Remove: []int{round * 3},
			Add: []treesched.NewDemand{
				{U: round % 32, V: 32 + (round*7+5)%32, Profit: float64(3 + round), Access: []int{round % 8}},
			},
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 2, 4, 8} {
			run := func(rec treesched.Recorder) []*treesched.Result {
				s := treesched.NewSolver(treesched.Options{
					Epsilon: 0.1, Seed: seed, Parallelism: workers, Recorder: rec,
				})
				sess, err := s.Session(buildInstance(t, fleetCfg, seed))
				if err != nil {
					t.Fatal(err)
				}
				var out []*treesched.Result
				for round := 0; round < 4; round++ {
					if round > 0 {
						if _, err := sess.Update(churnScript(round)); err != nil {
							t.Fatal(err)
						}
					}
					res, err := sess.Solve()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res)
				}
				return out
			}
			bare := run(nil)
			attached := run(obs.NewRecorder())
			if !reflect.DeepEqual(bare, attached) {
				t.Errorf("seed %d p=%d: recorder changed session results", seed, workers)
			}
		}
	}
}

// TestRecorderOneShotBitwise covers the one-shot Solve paths the session
// test cannot: the arbitrary-heights pipeline and the simulated execution,
// each bare versus recorder-attached.
func TestRecorderOneShotBitwise(t *testing.T) {
	mixed := workload.TreeConfig{
		Vertices: 64, Trees: 3, Demands: 72, ProfitRatio: 16,
		Heights: workload.MixedHeights,
	}
	for _, tc := range []struct {
		name string
		cfg  workload.TreeConfig
		opts treesched.Options
	}{
		{"arbitrary", mixed, treesched.Options{Epsilon: 0.1, Seed: 3, Parallelism: 4}},
		{"simulate", fleetCfg, treesched.Options{Epsilon: 0.1, Seed: 3, Simulate: true}},
	} {
		bare, err := treesched.Solve(buildInstance(t, tc.cfg, 17), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		withRec := tc.opts
		rec := obs.NewRecorder()
		withRec.Recorder = rec
		attached, err := treesched.Solve(buildInstance(t, tc.cfg, 17), withRec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(bare, attached) {
			t.Errorf("%s: recorder changed the result:\nbare     %+v\nattached %+v", tc.name, bare, attached)
		}
		if rec.Report().Solves == 0 {
			t.Errorf("%s: recorder saw no solves", tc.name)
		}
	}
}
