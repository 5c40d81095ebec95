package engine_test

import (
	"math/rand"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/verify"
	"treesched/internal/workload"
)

// FuzzEngineRun drives the full two-phase engine over fuzzed instance shapes
// and asserts the unconditional invariants. Run with
// `go test -fuzz FuzzEngineRun ./internal/engine` to explore beyond the seed
// corpus.
func FuzzEngineRun(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(8), uint8(2), false)
	f.Add(int64(9), uint8(30), uint8(20), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, nv, nd, nt uint8, narrow bool) {
		n := int(nv)%40 + 4
		m := int(nd)%20 + 1
		r := int(nt)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.TreeConfig{Vertices: n, Trees: r, Demands: m, ProfitRatio: 8}
		mode := engine.Unit
		if narrow {
			cfg.Heights = workload.NarrowHeights
			cfg.HMin = 0.1
			mode = engine.Narrow
		}
		in, err := workload.RandomTreeInstance(cfg, rng)
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
		if err := verify.Feasible(items, res.Selected, mode); err != nil {
			t.Fatal(err)
		}
		if err := verify.Interference(items, res.Trace); err != nil {
			t.Fatal(err)
		}
		if res.Lambda < 0.8-1e-9 {
			t.Fatalf("λ = %v < 1-ε", res.Lambda)
		}
	})
}
