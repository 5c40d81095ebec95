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
	register("E6", "Theorem 5.3: unit-height trees, ratio and rounds", runE6)
	register("E7", "Theorem 6.3 / Lemmas 6.1-6.2: arbitrary heights on trees", runE7)
	register("E10", "Lemma 5.1: steps per stage vs profit spread", runE10)
	register("E11", "Appendix A: sequential tree algorithm", runE11)
}

// runE6 measures the unit-height tree algorithm: approximation ratio against
// the exact optimum on small instances and against the certified dual bound
// on larger ones, plus the schedule terms behind the round bound.
func runE6(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 12
	if cfg.Quick {
		trials = 5
	}

	small := &stats.Table{
		Title:   "E6a — Theorem 5.3 vs exact optimum (small instances, ε = 0.1, bound 7.78)",
		Columns: []string{"n", "m", "r", "workload", "mean ratio", "worst ratio", "ok (≤ 7.78)"},
	}
	for _, shape := range []struct {
		n, m, r int
		hotspot float64
	}{{10, 7, 2, 0}, {14, 9, 2, 0}, {12, 8, 3, 0}, {12, 8, 2, 0.7}} {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: shape.n, Trees: shape.r, Demands: shape.m, ProfitRatio: 8,
				HotspotFraction: shape.hotspot,
			}, rng)
			if err != nil {
				return nil, err
			}
			items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
			if err != nil {
				return nil, err
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
		kind := "uniform"
		if shape.hotspot > 0 {
			kind = "hotspot"
		}
		small.AddRow(shape.n, shape.m, shape.r, kind, s.Mean, s.Max, boolMark(s.Max <= 7.0/0.9+1e-9))
	}

	big := &stats.Table{
		Title:   "E6b — Theorem 5.3 at scale: profit vs certified dual bound, schedule terms",
		Columns: []string{"n", "m", "r", "profit/bound", "λ", "epochs", "stages", "steps", "MIS iters"},
		Notes: []string{
			"profit/bound lower-bounds the true quality p(S)/Opt; the theorem guarantees ≥ 1/7.78 ≈ 0.129.",
			"Rounds in the message-passing model: see E12; here epochs×stages×steps×MIS-iterations are the schedule terms of Theorem 5.3.",
		},
	}
	sizes := []struct{ n, m, r int }{{64, 48, 2}, {128, 96, 3}, {256, 192, 4}, {512, 384, 4}}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: sz.n, Trees: sz.r, Demands: sz.m, ProfitRatio: 64,
		}, rng)
		if err != nil {
			return nil, err
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return nil, err
		}
		res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: cfg.Seed}, 1)
		if err != nil {
			return nil, err
		}
		big.AddRow(sz.n, sz.m, sz.r, res.Profit/res.Bound, res.Lambda, res.Epochs, res.Stages, res.Steps, res.MISIters)
	}
	return []*stats.Table{small, big}, nil
}

// runE7 measures the arbitrary-height pipeline: the narrow-only algorithm
// against its (2∆²+1)/λ accounting and the combined wide/narrow algorithm
// against the exact optimum.
func runE7(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	t := &stats.Table{
		Title:   "E7 — Theorem 6.3: arbitrary heights on trees (ε = 0.15)",
		Columns: []string{"height mix", "hmin", "mean ratio vs opt", "worst ratio", "theorem bound", "ok"},
	}
	cases := []struct {
		name  string
		mix   workload.HeightMix
		hmin  float64
		bound float64
	}{
		{"narrow only", workload.NarrowHeights, 0.2, 73 / 0.85},
		{"narrow only", workload.NarrowHeights, 0.1, 73 / 0.85},
		{"mixed", workload.MixedHeights, 0.2, 80/0.85 + 1},
		{"wide only", workload.WideHeights, 0.51, 7 / 0.85},
	}
	for _, c := range cases {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: 12, Trees: 2, Demands: 8, ProfitRatio: 4,
				Heights: c.mix, HMin: c.hmin,
			}, rng)
			if err != nil {
				return nil, err
			}
			items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
			if err != nil {
				return nil, err
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

// runE10 measures steps per stage against the Lemma 5.1 bound
// 1 + log₂(pmax/pmin) as the profit spread grows.
func runE10(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &stats.Table{
		Title:   "E10 — Lemma 5.1: steps per (epoch, stage) vs profit spread",
		Columns: []string{"pmax/pmin", "max steps in any stage", "bound 1+⌈log₂ ratio⌉", "ok"},
		Notes:   []string{"Steps are counted per (epoch, stage) pair with a non-empty unsatisfied set."},
	}
	ratios := []float64{1, 4, 16, 256, 4096, 65536}
	if cfg.Quick {
		ratios = []float64{1, 16, 1024}
	}
	for _, ratio := range ratios {
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 48, Trees: 2, Demands: 64, ProfitRatio: ratio,
		}, rng)
		if err != nil {
			return nil, err
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return nil, err
		}
		res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: cfg.Seed}, 1)
		if err != nil {
			return nil, err
		}
		bound := 1 + int(math.Ceil(math.Log2(ratio)))
		t.AddRow(stats.FormatFloat(ratio), res.MaxStageSteps, bound, boolMark(res.MaxStageSteps <= bound))
	}
	return []*stats.Table{t}, nil
}

// runE11 measures the Appendix-A sequential algorithm against brute force.
func runE11(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 20
	if cfg.Quick {
		trials = 8
	}
	t := &stats.Table{
		Title:   "E11 — Appendix A: sequential algorithm vs exact optimum",
		Columns: []string{"trees", "mean ratio", "worst ratio", "proven bound", "ok"},
	}
	for _, r := range []int{1, 2, 3} {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: 12, Trees: r, Demands: 8, ProfitRatio: 8,
			}, rng)
			if err != nil {
				return nil, err
			}
			res, err := seq.AppendixA(in)
			if err != nil {
				return nil, err
			}
			opt, _ := seq.Brute(res.Items, true)
			if res.Profit > 0 {
				ratios = append(ratios, opt/res.Profit)
			}
		}
		bound := 3.0
		if r == 1 {
			bound = 2
		}
		s := stats.Summarize(ratios)
		t.AddRow(r, s.Mean, s.Max, bound, boolMark(s.Max <= bound+1e-9))
	}
	return []*stats.Table{t}, nil
}
