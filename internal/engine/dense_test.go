package engine_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// mapDual is the pre-refactor map-backed dual state, kept here as the
// golden reference semantics: the dense []float64 representation must be a
// pure storage change, so replaying the engine's recorded raise history
// through this implementation has to reproduce every δ, every final dual
// value and the objective, their exact sum, bitwise.
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

// value is the dual objective: the math/big sum of every value, exact at
// 2,200 bits (any sum of fewer than 2^100 finite float64s) and rounded once
// to nearest, so map iteration order cannot reach it.
func (m *mapDual) value() float64 {
	sum := new(big.Float).SetPrec(2200)
	for _, v := range m.alpha {
		sum.Add(sum, new(big.Float).SetFloat64(v))
	}
	for _, v := range m.beta {
		sum.Add(sum, new(big.Float).SetFloat64(v))
	}
	v, _ := sum.Float64()
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
						res, err = engine.Prepare(items).Solve(cfg, 1)
					} else {
						rec := newCountingRecorder()
						res, err = sharded(items, rec).Solve(cfg, workers)
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
					d := res.Dual
					if !reflect.DeepEqual(d.AlphaMap(), shadow.alpha) {
						t.Errorf("%s: α diverged from map-state golden", tag)
					}
					if !reflect.DeepEqual(d.BetaMap(), shadow.beta) {
						t.Errorf("%s: β diverged from map-state golden", tag)
					}
					if got, want := d.Value(), shadow.value(); got != want {
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
// really shard. The serial engine prepared in one arena, reused across the
// sweep's instances of different sizes, must return the Result of fresh
// storage, bit for bit, its dual included.
func TestThreeExecutionsAgree(t *testing.T) {
	arena := engine.TakeArena()
	defer arena.Release()
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
				serial, err := engine.Prepare(items).Solve(cfg, 1)
				if err != nil {
					t.Fatalf("%v/%s seed %d: serial: %v", mode, shape.name, seed, err)
				}
				pooled, err := engine.PrepareRecorded(items, nil, arena).Solve(cfg, 1)
				if err != nil {
					t.Fatalf("%v/%s seed %d: in an arena: %v", mode, shape.name, seed, err)
				}
				if !reflect.DeepEqual(pooled.Selected, serial.Selected) || math.Float64bits(pooled.Profit) != math.Float64bits(serial.Profit) ||
					math.Float64bits(pooled.Bound) != math.Float64bits(serial.Bound) || math.Float64bits(pooled.Lambda) != math.Float64bits(serial.Lambda) ||
					!reflect.DeepEqual(pooled.Dual.AlphaMap(), serial.Dual.AlphaMap()) || !reflect.DeepEqual(pooled.Dual.BetaMap(), serial.Dual.BetaMap()) {
					t.Errorf("%v/%s seed %d: the solve in an arena diverged", mode, shape.name, seed)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					rec := newCountingRecorder()
					par, err := sharded(items, rec).Solve(cfg, workers)
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
		res, err := engine.Prepare(items).Solve(engine.Config{
			Mode: mode, Epsilon: 0.2, Seed: seed, RecordTrace: true,
		}, 1)
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
