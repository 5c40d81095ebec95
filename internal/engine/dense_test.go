package engine_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// mapDual is the pre-refactor map-backed dual state, kept here as the
// golden reference semantics: the dense []float64 representation must be a
// pure storage change, so replaying the engine's recorded raise history
// through this implementation has to reproduce every δ and every final
// dual value bitwise.
type mapDual struct {
	alpha map[int]float64
	beta  map[model.EdgeKey]float64
}

func newMapDual() *mapDual {
	return &mapDual{alpha: make(map[int]float64), beta: make(map[model.EdgeKey]float64)}
}

func (m *mapDual) betaSum(path []model.EdgeKey) float64 {
	s := 0.0
	for _, e := range path {
		s += m.beta[e]
	}
	return s
}

func (m *mapDual) lhs(it *engine.Item, coeff float64) float64 {
	return m.alpha[it.Demand] + coeff*m.betaSum(it.Edges)
}

// raise applies the mode's raise rule exactly as the pre-refactor
// dual.RaiseUnit / dual.RaiseNarrow did, returning δ.
func (m *mapDual) raise(it *engine.Item, mode engine.Mode) float64 {
	if mode == engine.Narrow {
		s := it.Profit - m.lhs(it, it.Height)
		if s <= 0 {
			return 0
		}
		k := float64(len(it.Critical))
		delta := s / (1 + 2*it.Height*k*k)
		m.alpha[it.Demand] += delta
		for _, e := range it.Critical {
			m.beta[e] += 2 * k * delta
		}
		return delta
	}
	s := it.Profit - m.lhs(it, 1)
	if s <= 0 {
		return 0
	}
	delta := s / float64(len(it.Critical)+1)
	m.alpha[it.Demand] += delta
	for _, e := range it.Critical {
		m.beta[e] += delta
	}
	return delta
}

// value is the pre-refactor deterministic dual objective: sum over sorted
// present keys.
func (m *mapDual) value() float64 {
	v := 0.0
	for _, k := range slices.Sorted(maps.Keys(m.alpha)) {
		v += m.alpha[k]
	}
	for _, k := range slices.Sorted(maps.Keys(m.beta)) {
		v += m.beta[k]
	}
	return v
}

// TestDenseMatchesMapGoldens is the determinism suite of the dense-state
// refactor: across seeds × modes × shapes × executions, the engine's
// recorded raise trace replayed through the map-backed golden
// implementation must reproduce every δ bitwise, and the final dense
// assignment (via its map views), the dual objective, and the run outputs
// must coincide exactly. The executions are the serial engine and the
// sharded pipeline at several worker counts, which must really shard the
// fleet shape.
func TestDenseMatchesMapGoldens(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		heights := workload.UnitHeights
		if mode == engine.Narrow {
			heights = workload.NarrowHeights
		}
		for seed := int64(0); seed < 8; seed++ {
			for _, shape := range []struct {
				name      string
				accessMax int
			}{{"contended", 2}, {"fleet", 1}} {
				items := treeItems(t, workload.TreeConfig{
					Vertices: 36, Trees: 3, Demands: 42, ProfitRatio: 12,
					Heights: heights, AccessMin: 1, AccessMax: shape.accessMax,
				}, seed)
				cfg := engine.Config{Mode: mode, Epsilon: 0.1, Seed: seed, RecordTrace: true}
				for _, workers := range []int{0, 1, 2, 3, 4, 8} {
					tag := fmt.Sprintf("%v/%s seed %d p=%d", mode, shape.name, seed, workers)
					var res *engine.Result
					var err error
					if workers == 0 {
						tag = fmt.Sprintf("%v/%s seed %d serial", mode, shape.name, seed)
						res, err = engine.Run(items, cfg)
					} else {
						rec := newCountingRecorder()
						res, err = sharded(items, rec).RunParallel(cfg, workers)
						if err == nil && shape.name == "fleet" && rec.started[engine.PhaseShardSolve] == 0 {
							t.Fatalf("%s: the sharded pipeline did not run", tag)
						}
					}
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					shadow := newMapDual()
					for i, ev := range res.Trace.Events {
						delta := shadow.raise(&items[ev.Item], mode)
						if delta != ev.Delta {
							t.Fatalf("%s: event %d (item %d): dense δ=%v, map-state δ=%v",
								tag, i, ev.Item, ev.Delta, delta)
						}
					}
					if !reflect.DeepEqual(res.Dual.AlphaMap(), shadow.alpha) {
						t.Errorf("%s: α diverged from map-state golden", tag)
					}
					if !reflect.DeepEqual(res.Dual.BetaMap(), shadow.beta) {
						t.Errorf("%s: β diverged from map-state golden", tag)
					}
					if got, want := res.Dual.Value(), shadow.value(); got != want {
						t.Errorf("%s: Value %v != map-state %v", tag, got, want)
					}
				}
			}
		}
	}
}

// TestThreeExecutionsAgree sweeps seeds × modes × shapes and asserts the
// three executions of the protocol — serial engine, sharded pipeline, and
// the message-passing simulation — return bitwise-identical selections and
// profit under the splitmix64 priority streams. The fleet shape must
// really shard.
func TestThreeExecutionsAgree(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		heights := workload.UnitHeights
		if mode == engine.Narrow {
			heights = workload.NarrowHeights
		}
		for seed := int64(0); seed < 5; seed++ {
			for _, shape := range []struct {
				name      string
				accessMax int
			}{{"contended", 2}, {"fleet", 1}} {
				items := treeItems(t, workload.TreeConfig{
					Vertices: 24, Trees: 3, Demands: 18, ProfitRatio: 6,
					Heights: heights, AccessMin: 1, AccessMax: shape.accessMax,
				}, 100+seed)
				cfg := engine.Config{Mode: mode, Epsilon: 0.25, Seed: seed}
				serial, err := engine.Run(items, cfg)
				if err != nil {
					t.Fatalf("%v/%s seed %d: serial: %v", mode, shape.name, seed, err)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					rec := newCountingRecorder()
					par, err := sharded(items, rec).RunParallel(cfg, workers)
					if err != nil {
						t.Fatalf("%v/%s seed %d: sharded w=%d: %v", mode, shape.name, seed, workers, err)
					}
					if shape.name == "fleet" && rec.started[engine.PhaseShardSolve] == 0 {
						t.Fatalf("%v/%s seed %d w=%d: the sharded pipeline did not run", mode, shape.name, seed, workers)
					}
					if !reflect.DeepEqual(serial.Selected, par.Selected) || serial.Profit != par.Profit {
						t.Errorf("%v/%s seed %d: sharded w=%d diverged: (%v, %v) vs (%v, %v)",
							mode, shape.name, seed, workers, par.Selected, par.Profit, serial.Selected, serial.Profit)
					}
				}
				sim, err := dist.Run(items, cfg)
				if err != nil {
					t.Fatalf("%v/%s seed %d: dist: %v", mode, shape.name, seed, err)
				}
				if !reflect.DeepEqual(serial.Selected, sim.Selected) || serial.Profit != sim.Profit {
					t.Errorf("%v/%s seed %d: dist diverged: (%v, %v) vs (%v, %v)",
						mode, shape.name, seed, sim.Selected, sim.Profit, serial.Selected, serial.Profit)
				}
			}
		}
	}
}

// FuzzDenseMapEquivalence drives randomized shapes through the engine and
// replays the trace against the map-state golden; `go test -fuzz` explores
// beyond the seed corpus.
func FuzzDenseMapEquivalence(f *testing.F) {
	f.Add(int64(3), uint8(20), uint8(12), false)
	f.Add(int64(8), uint8(33), uint8(17), true)
	f.Fuzz(func(t *testing.T, seed int64, nv, nd uint8, narrow bool) {
		n := int(nv)%36 + 4
		m := int(nd)%18 + 1
		rng := rand.New(rand.NewSource(seed))
		wcfg := workload.TreeConfig{Vertices: n, Trees: 2, Demands: m, ProfitRatio: 8}
		mode := engine.Unit
		if narrow {
			wcfg.Heights = workload.NarrowHeights
			wcfg.HMin = 0.1
			mode = engine.Narrow
		}
		in, err := workload.RandomTreeInstance(wcfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(items, engine.Config{
			Mode: mode, Epsilon: 0.2, Seed: seed, RecordTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		shadow := newMapDual()
		for _, ev := range res.Trace.Events {
			if delta := shadow.raise(&items[ev.Item], mode); delta != ev.Delta {
				t.Fatalf("event item %d: dense δ=%v map δ=%v", ev.Item, ev.Delta, delta)
			}
		}
		if !reflect.DeepEqual(res.Dual.AlphaMap(), shadow.alpha) ||
			!reflect.DeepEqual(res.Dual.BetaMap(), shadow.beta) {
			t.Fatal("dual state diverged from map-state golden")
		}
	})
}
