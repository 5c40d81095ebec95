package experiments

import (
	"math/rand"
	"reflect"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/stats"
	"treesched/internal/workload"
)

func init() {
	register("E12", "§5 distributed implementation: rounds, messages, message sizes", runE12)
	register("A3", "Equivalence: in-process engine vs message-passing protocol", runA3)
}

// runE12 runs the full message-passing protocol and reports honest
// communication statistics, decomposing the fixed synchronous schedule into
// the terms of Theorem 5.3.
func runE12(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &stats.Table{
		Title:   "E12 — Distributed implementation: communication accounting (ε = 0.3)",
		Columns: []string{"n", "m", "r", "procs", "schedule rounds", "busy rounds", "messages", "max msg (units of M)", "epochs", "stages", "step cap", "Luby budget"},
		Notes: []string{
			"Schedule rounds = 1 + T·2·B + T with T = epochs·stages·stepCap and B the per-step Luby budget — the fixed synchronous schedule every processor derives locally (Theorem 5.3 shape: O(T_MIS·log n·log(1/ε)·log(pmax/pmin))).",
			"Busy rounds are rounds that actually moved a message; idle rounds are fast-forwarded by the simulator but still counted.",
			"Message size stays O(M): the largest message is one processor's setup descriptor list (≤ r items).",
		},
	}
	sizes := []struct{ n, m, r int }{{16, 10, 2}, {32, 20, 2}, {64, 40, 3}}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: sz.n, Trees: sz.r, Demands: sz.m, ProfitRatio: 4,
		}, rng)
		if err != nil {
			return nil, err
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return nil, err
		}
		res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(sz.n, sz.m, sz.r, res.Processors, res.ScheduleRounds, res.Stats.BusyRounds,
			res.Stats.Messages, res.Stats.MaxMessageSize,
			res.Plan.MaxGroup, res.Plan.Stages, res.Plan.StepCap, res.LubyBudget)
	}

	// E12b: the schedule length is deterministic, so its scaling in each
	// parameter of Theorem 5.3 can be tabulated exactly.
	scaling := &stats.Table{
		Title:   "E12b — Round-bound scaling: schedule length vs each Theorem 5.3 term",
		Columns: []string{"varied", "n", "pmax/pmin", "ε", "epochs (~2·log n)", "stages (~log 1/ε)", "step cap (~log pmax/pmin)", "schedule rounds"},
		Notes: []string{
			"Schedule rounds = 1 + T·(2B+1) with T = epochs·stages·stepCap and B = O(log N) the Luby budget; each factor matches one term of O(T_MIS·log n·log(1/ε)·log(pmax/pmin)).",
		},
	}
	type cfgRow struct {
		varied string
		n      int
		ratio  float64
		eps    float64
	}
	rows := []cfgRow{
		{"n", 16, 4, 0.3}, {"n", 64, 4, 0.3}, {"n", 256, 4, 0.3}, {"n", 1024, 4, 0.3},
		{"pmax/pmin", 64, 1, 0.3}, {"pmax/pmin", 64, 16, 0.3}, {"pmax/pmin", 64, 256, 0.3}, {"pmax/pmin", 64, 4096, 0.3},
		{"ε", 64, 4, 0.5}, {"ε", 64, 4, 0.3}, {"ε", 64, 4, 0.15}, {"ε", 64, 4, 0.05},
	}
	if cfg.Quick {
		rows = rows[:6]
	}
	for _, r := range rows {
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: r.n, Trees: 2, Demands: r.n / 2, ProfitRatio: r.ratio,
		}, rng)
		if err != nil {
			return nil, err
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return nil, err
		}
		ecfg := engine.Config{Mode: engine.Unit, Epsilon: r.eps}
		plan, err := engine.PlanFor(items, ecfg)
		if err != nil {
			return nil, err
		}
		b := dist.LubyBudgetFor(len(items))
		total := plan.MaxGroup * plan.Stages * plan.StepCap
		rounds := 1 + total*(2*b+1)
		scaling.AddRow(r.varied, r.n, stats.FormatFloat(r.ratio), r.eps,
			plan.MaxGroup, plan.Stages, plan.StepCap, rounds)
	}
	return []*stats.Table{t, scaling}, nil
}

// runA3 verifies the engine/protocol equivalence over several seeds and
// both raise modes.
func runA3(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &stats.Table{
		Title:   "A3 — Engine vs message-passing protocol equivalence",
		Columns: []string{"mode", "seed", "items", "identical selection", "profit"},
	}
	seeds := []int64{1, 2, 3, 4}
	if cfg.Quick {
		seeds = seeds[:2]
	}
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for _, seed := range seeds {
			wcfg := workload.TreeConfig{Vertices: 14, Trees: 2, Demands: 9, ProfitRatio: 4}
			if mode == engine.Narrow {
				wcfg.Heights = workload.NarrowHeights
				wcfg.HMin = 0.2
			}
			in, err := workload.RandomTreeInstance(wcfg, rng)
			if err != nil {
				return nil, err
			}
			items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
			if err != nil {
				return nil, err
			}
			rcfg := engine.Config{Mode: mode, Epsilon: 0.3, Seed: seed}
			eres, err := engine.Prepare(items).Solve(rcfg, 1)
			if err != nil {
				return nil, err
			}
			dres, err := dist.Run(items, rcfg)
			if err != nil {
				return nil, err
			}
			same := reflect.DeepEqual(eres.Selected, dres.Selected)
			t.AddRow(mode.String(), seed, len(items), boolMark(same), dres.Profit)
		}
	}
	return []*stats.Table{t}, nil
}
