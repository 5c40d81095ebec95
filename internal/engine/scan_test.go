package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/dual"
	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// The compacted-scan suite: the production first phase, which re-tests only
// the items that can still be unsatisfied, against the full-scan loop it
// replaced, kept here as the oracle. Every stack entry, every counter, every
// trace event and every dual bit must agree, and a violated step cap must
// fail both with the same error.

// fullScanFirstPhase is the first phase with its scan as it was before
// compaction: every step re-tests every member of the epoch, which it reads
// off the items' groups.
func fullScanFirstPhase(items []Item, st *state, res *Result) error {
	groups := make(map[int][]int)
	for i := range items {
		g := items[i].Group
		groups[g] = append(groups[g], i)
	}
	res.Epochs = st.plan.MaxGroup
	res.Stages = st.plan.Stages
	views := st.lay.views
	for k := 1; k <= st.plan.MaxGroup; k++ {
		members := groups[k]
		if len(members) == 0 {
			continue
		}
		for j := 0; j < st.plan.Stages; j++ {
			thresh := st.plan.Thresholds[j]
			for iter := 0; ; iter++ {
				if iter >= st.plan.StepCap {
					return fmt.Errorf("engine: epoch %d stage %d exceeded %d steps (pmax/pmin=%v); Lemma 5.1 cap violated",
						k, j+1, st.plan.StepCap, st.plan.PMax/st.plan.PMin)
				}
				var u []int
				for _, id := range members {
					if st.core.Unsatisfied(&views[id], thresh) {
						u = append(u, id)
					}
				}
				if len(u) == 0 {
					if iter > res.MaxStageSteps {
						res.MaxStageSteps = iter
					}
					break
				}
				st.steps++
				res.Steps++
				chosen, iters := st.independentSet(u)
				res.MISIters += iters
				for _, id := range chosen {
					st.raise(id)
				}
				res.Raised += len(chosen)
				st.scr.stack = append(st.scr.stack, step{epoch: k, stage: j + 1, iter: iter, items: chosen, misIters: iters})
			}
		}
	}
	return nil
}

// firstPhasesAgree runs the oracle and the production first phase on fresh
// states over one item set and layout and fails on the first difference.
// The production side runs on scr, which callers share across instances of
// different sizes and group counts so its buffers are recycled as the
// pooled ones are; the oracle gets a private scratch. stepCap ≥ 0
// overrides the plan's step cap. It reports whether both sides failed
// (with the same error).
func firstPhasesAgree(t testing.TB, tag string, items []Item, lay *layout, cfg Config, stepCap int, scr *solveScratch) (failed bool) {
	t.Helper()
	plan, err := PlanFor(items, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if stepCap >= 0 {
		plan.StepCap = stepCap
	}
	run := func(phase func(*state, *Result) error, scr *solveScratch) (*state, *Result, error) {
		st := newState(lay, cfg, plan, scr, dual.NewWithIndex(lay.ix), nil)
		res := &Result{Dual: st.core.Dual, Trace: st.trace}
		return st, res, phase(st, res)
	}
	wst, want, werr := run(func(st *state, res *Result) error { return fullScanFirstPhase(items, st, res) }, nil)
	gst, got, gerr := run(func(st *state, res *Result) error {
		_, err := st.firstPhase(res)
		return err
	}, scr)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", tag, gerr, werr)
	}
	if werr != nil {
		return true
	}
	if len(gst.scr.stack) != len(wst.scr.stack) {
		t.Fatalf("%s: %d stack entries, oracle %d", tag, len(gst.scr.stack), len(wst.scr.stack))
	}
	for i := range wst.scr.stack {
		g, w := &gst.scr.stack[i], &wst.scr.stack[i]
		if g.epoch != w.epoch || g.stage != w.stage || g.iter != w.iter || g.misIters != w.misIters ||
			!slices.Equal(g.items, w.items) {
			t.Fatalf("%s: stack[%d] = %+v, oracle %+v", tag, i, *g, *w)
		}
	}
	if got.Steps != want.Steps || got.Raised != want.Raised || got.MaxStageSteps != want.MaxStageSteps ||
		got.MISIters != want.MISIters || got.Epochs != want.Epochs || got.Stages != want.Stages ||
		gst.steps != wst.steps {
		t.Fatalf("%s: counters %+v, oracle %+v", tag, *got, *want)
	}
	for s := int32(0); int(s) < lay.demands; s++ {
		if g, w := got.Dual.Alpha(s), want.Dual.Alpha(s); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: α[%d] = %v, oracle %v", tag, s, g, w)
		}
	}
	for e := int32(0); int(e) < lay.edges; e++ {
		if g, w := got.Dual.Beta(e), want.Dual.Beta(e); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: β[%d] = %v, oracle %v", tag, e, g, w)
		}
	}
	if (got.Trace == nil) != (want.Trace == nil) ||
		(got.Trace != nil && !slices.Equal(got.Trace.Events, want.Trace.Events)) {
		t.Fatalf("%s: trace diverged", tag)
	}
	return false
}

// chainItems builds one large sparse conflict component: item i occupies
// edges {e_i, e_{i+1}}, so it conflicts exactly with its chain neighbors.
// The component is as large as the instance, but every MIS is ~half of the
// unsatisfied set, so its steps are large where a dense component's stay
// tiny.
func chainItems(n int, height float64) []Item {
	items := make([]Item, n)
	for i := range items {
		e := func(k int) model.EdgeKey { return model.MakeEdgeKey(0, graph.EdgeID(k)) }
		items[i] = Item{
			ID: i, Demand: i, Resource: 0, Group: 1 + i%2,
			Profit: 1 + float64(i%7), Height: height,
			Edges:    []model.EdgeKey{e(i), e(i + 1)},
			Critical: []model.EdgeKey{e(i)},
		}
	}
	return items
}

// scanShape is one named instance of the suite.
type scanShape struct {
	name  string
	items []Item
}

// scanShapes are the instance shapes of the suite: contended (every demand
// on up to three networks, few components), fleet (one network per demand,
// many components) and a single sparse chain.
func scanShapes(t testing.TB, seed int64, narrow bool) []scanShape {
	t.Helper()
	height, heights := 1.0, workload.UnitHeights
	if narrow {
		height, heights = 0.4, workload.NarrowHeights
	}
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 64, Trees: 3, Demands: 64, ProfitRatio: 16, Heights: heights, HMin: 0.1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	contended, err := BuildTreeItems(in, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return []scanShape{
		{"contended", contended},
		{"fleet", warmPoolItems(t, seed, 96, heights)},
		{"chain", chainItems(64, height)},
	}
}

// TestFirstPhaseMatchesFullScan pins the compacted scan to the full-scan
// oracle across modes, SingleStage, several ε and seeds, on the whole
// item set and on every conflict component's items prepared afresh (the
// item sets runShard runs in place), and with forced tiny step caps where
// both must fail identically.
func TestFirstPhaseMatchesFullScan(t *testing.T) {
	scr := &solveScratch{}
	for _, narrow := range []bool{false, true} {
		mode := Unit
		if narrow {
			mode = Narrow
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, shape := range scanShapes(t, seed, narrow) {
				p := Prepare(shape.items)
				comps := p.Components()
				for _, eps := range []float64{0.5, 0.2, 0.05} {
					for _, single := range []bool{false, true} {
						cfg := Config{Mode: mode, Epsilon: eps, Seed: seed, SingleStage: single, RecordTrace: seed == 1}
						tag := fmt.Sprintf("%v/%s/seed=%d/ε=%v/single=%v", mode, shape.name, seed, eps, single)
						if firstPhasesAgree(t, tag, p.items, p.lay, cfg, -1, scr) {
							t.Fatalf("%s: first phase failed at the default step cap", tag)
						}
						for c, comp := range comps {
							sp := Prepare(componentItems(p, comp))
							firstPhasesAgree(t, fmt.Sprintf("%s/component=%d", tag, c), sp.items, sp.lay, cfg, -1, scr)
						}
						for _, stepCap := range []int{0, 1, 2} {
							failed := firstPhasesAgree(t, fmt.Sprintf("%s/cap=%d", tag, stepCap), p.items, p.lay, cfg, stepCap, scr)
							if stepCap < 2 && !failed {
								t.Fatalf("%s: step cap %d did not fire", tag, stepCap)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzFirstPhaseCompaction explores the same oracle comparison over fuzzed
// shapes: network count and size, demand count, access breadth (fleet
// versus contended), mode, SingleStage, ε and the step cap. flags bit 2
// (value 4) selects nothing; the other bits keep their meaning in
// recorded inputs.
func FuzzFirstPhaseCompaction(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(30), uint8(2), uint8(0), uint8(20), int8(-1))
	f.Add(int64(7), uint8(20), uint8(50), uint8(3), uint8(1), uint8(5), int8(-1))
	f.Add(int64(3), uint8(60), uint8(12), uint8(1), uint8(6), uint8(50), int8(1))
	f.Add(int64(5), uint8(30), uint8(40), uint8(3), uint8(8), uint8(10), int8(2))
	f.Fuzz(func(t *testing.T, seed int64, nv, nd, nt, flags, eps uint8, stepCap int8) {
		narrow, single, fleet := flags&1 != 0, flags&2 != 0, flags&8 != 0
		cfg := workload.TreeConfig{
			Vertices: int(nv)%60 + 4, Trees: int(nt)%3 + 1, Demands: int(nd)%60 + 1, ProfitRatio: 16,
		}
		mode := Unit
		if narrow {
			cfg.Heights, cfg.HMin, mode = workload.NarrowHeights, 0.1, Narrow
		}
		if fleet {
			cfg.AccessMin, cfg.AccessMax = 1, 1
		}
		in, err := workload.RandomTreeInstance(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		items, err := BuildTreeItems(in, IdealDecomp)
		if err != nil {
			t.Fatal(err)
		}
		rc := Config{Mode: mode, Epsilon: 0.02 + float64(eps%90)/100, Seed: seed, SingleStage: single, RecordTrace: true}
		c := -1
		if stepCap >= 0 {
			c = int(stepCap) % 4
		}
		p := Prepare(items)
		scr := &solveScratch{}
		firstPhasesAgree(t, "global", p.items, p.lay, rc, c, scr)
		for i, comp := range p.Components() {
			sp := Prepare(componentItems(p, comp))
			firstPhasesAgree(t, fmt.Sprintf("component=%d", i), sp.items, sp.lay, rc, c, scr)
		}
	})
}
