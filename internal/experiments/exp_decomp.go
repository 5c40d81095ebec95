package experiments

import (
	"math"
	"math/rand"

	"treesched/internal/decomp"
	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/stats"
	"treesched/internal/workload"
)

func init() {
	register("E4", "Lemma 4.1: ideal tree decomposition parameters", runE4)
	register("E5", "Lemmas 4.2/4.3: layered decomposition parameters", runE5)
	register("A1", "Ablation: decomposition choice inside the algorithm", runA1)
}

// runE4 measures ideal-decomposition depth and pivot size across topologies
// and sizes against the Lemma 4.1 bounds (depth ≤ 2⌈log₂ n⌉+1 with our
// root-depth-1 convention, θ ≤ 2).
func runE4(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{15, 63, 255, 1023, 4095}
	if cfg.Quick {
		sizes = []int{15, 63, 255}
	}
	t := &stats.Table{
		Title:   "E4 — Lemma 4.1: ideal tree decomposition",
		Columns: []string{"topology", "n", "depth", "2⌈log₂n⌉+1", "θ", "θ bound", "ok"},
	}
	for _, shape := range workload.Topologies() {
		for _, n := range sizes {
			tr, err := workload.Tree(shape, n, rng)
			if err != nil {
				return nil, err
			}
			h := decomp.Ideal(tr)
			bound := 2*int(math.Ceil(math.Log2(float64(n)))) + 1
			ok := h.MaxDepth() <= bound && h.PivotSize() <= 2
			t.AddRow(string(shape), n, h.MaxDepth(), bound, h.PivotSize(), 2, boolMark(ok))
		}
	}
	t.Notes = append(t.Notes, "Validity (LCA + component + pivot properties) is checked exhaustively in the decomp test suite.")

	// E4b: the §4.2 worst case. On the adversarial hub-and-blobs tree the
	// balancing decomposition's pivot size grows as Θ(log n), while the
	// ideal decomposition stays at θ ≤ 2 on the very same tree — the gap
	// Lemma 4.1 closes.
	adv := &stats.Table{
		Title:   "E4b — §4.2 worst case: balancing vs ideal on the adversarial tree",
		Columns: []string{"k", "n", "balancing θ", "Θ(log n) expectation k-1", "ideal θ", "ideal depth", "2⌈log₂n⌉+1"},
	}
	ks := []int{4, 6, 8, 10, 12}
	if cfg.Quick {
		ks = ks[:3]
	}
	for _, k := range ks {
		tr := decomp.AdversarialBalancingTree(k)
		bal := decomp.Balancing(tr)
		ideal := decomp.Ideal(tr)
		bound := 2*int(math.Ceil(math.Log2(float64(tr.N())))) + 1
		adv.AddRow(k, tr.N(), bal.PivotSize(), k-1, ideal.PivotSize(), ideal.MaxDepth(), bound)
	}
	return []*stats.Table{t, adv}, nil
}

// runE5 measures layered-decomposition critical-set sizes and lengths, and
// counts interference-pair checks, over random trees and demand sets.
func runE5(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 30
	demandsPer := 60
	if cfg.Quick {
		trials, demandsPer = 10, 30
	}
	t := &stats.Table{
		Title:   "E5 — Lemmas 4.2/4.3: layered decompositions (random trees)",
		Columns: []string{"n", "max |π| seen", "∆ bound", "length", "O(log n) bound", "interference pairs checked", "violations"},
	}
	for _, n := range []int{31, 127, 511} {
		maxPi, maxLen := 0, 0
		pairs, violations := 0, 0
		for trial := 0; trial < trials; trial++ {
			tr := workload.MustRandomTree(n, rng)
			l := decomp.NewLayered(decomp.Ideal(tr))
			if l.Length > maxLen {
				maxLen = l.Length
			}
			type di struct {
				group int
				crit  map[graph.EdgeID]bool
				edges map[graph.EdgeID]bool
			}
			var ds []di
			for q := 0; q < demandsPer; q++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				g, crit := l.Assign(u, v)
				if len(crit) > maxPi {
					maxPi = len(crit)
				}
				d := di{group: g, crit: map[graph.EdgeID]bool{}, edges: map[graph.EdgeID]bool{}}
				for _, e := range crit {
					d.crit[e] = true
				}
				for _, e := range tr.PathEdges(u, v) {
					d.edges[e] = true
				}
				ds = append(ds, d)
			}
			for a := range ds {
				for b := range ds {
					if a == b || ds[a].group > ds[b].group {
						continue
					}
					overlap := false
					for e := range ds[a].edges {
						if ds[b].edges[e] {
							overlap = true
							break
						}
					}
					if !overlap {
						continue
					}
					pairs++
					hit := false
					for e := range ds[a].crit {
						if ds[b].edges[e] {
							hit = true
							break
						}
					}
					if !hit {
						violations++
					}
				}
			}
		}
		bound := 2 * int(math.Ceil(math.Log2(float64(n)))) // length ≤ 2⌈log n⌉ (+1 root conv.)
		t.AddRow(n, maxPi, 6, maxLen, bound+1, pairs, violations)
	}
	return []*stats.Table{t}, nil
}

// runA1 compares the three tree decompositions inside the full algorithm:
// critical-set size ∆, epochs ℓ, solution quality (profit / dual bound) and
// the round-relevant schedule terms.
func runA1(cfg Config) ([]*stats.Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, m := 256, 80
	trials := 8
	if cfg.Quick {
		n, m, trials = 64, 30, 4
	}
	t := &stats.Table{
		Title:   "A1 — Decomposition ablation (unit heights, caterpillar topology)",
		Columns: []string{"decomposition", "θ measured", "θ certified", "∆ observed", "epochs ℓ", "certified ratio", "mean profit", "mean profit/bound"},
		Notes: []string{
			"θ certified is the pivot-size bound each construction can promise a priori: 1 for root-fixing (§4.2), 2 for ideal (Lemma 4.1), and only depth-1 for balancing (pivots are H-ancestors). The certified ratio is (2(θcert+1)+1)/(1-ε).",
			"Root-fixing certifies the best ratio but its epoch count ℓ equals the decomposition depth — Θ(n) on path-like trees — forfeiting the polylog round bound. Only the ideal decomposition certifies both a constant ratio and ℓ = O(log n), which is the paper's Lemma 4.1 contribution.",
			"Observed ∆ can undercut the certificates because coincident wings deduplicate.",
		},
	}
	kinds := []engine.DecompKind{engine.IdealDecomp, engine.BalancingDecomp, engine.RootFixingDecomp}
	for _, kind := range kinds {
		var profits, quality []float64
		maxDelta, maxEpochs, maxTheta, thetaCert := 0, 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: n, Trees: 2, Demands: m, ProfitRatio: 16,
				Shape: workload.Caterpillar, MaxDist: n / 4,
			}, rng)
			if err != nil {
				return nil, err
			}
			for _, tr := range in.Trees {
				var h *decomp.TreeDecomposition
				var cert int
				switch kind {
				case engine.IdealDecomp:
					h = decomp.Ideal(tr)
					cert = 2
				case engine.BalancingDecomp:
					h = decomp.Balancing(tr)
					cert = h.MaxDepth() - 1
				case engine.RootFixingDecomp:
					h = decomp.RootFixing(tr, 0)
					cert = 1
				}
				if h.PivotSize() > maxTheta {
					maxTheta = h.PivotSize()
				}
				if cert > thetaCert {
					thetaCert = cert
				}
			}
			items, err := engine.BuildTreeItems(in, kind)
			if err != nil {
				return nil, err
			}
			res, err := engine.Prepare(items).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: cfg.Seed + int64(trial)}, 1)
			if err != nil {
				return nil, err
			}
			if res.Delta > maxDelta {
				maxDelta = res.Delta
			}
			if res.Epochs > maxEpochs {
				maxEpochs = res.Epochs
			}
			profits = append(profits, res.Profit)
			quality = append(quality, res.Profit/res.Bound)
		}
		ratio := float64(2*(thetaCert+1)+1) / 0.9
		t.AddRow(kind.String(), maxTheta, thetaCert, maxDelta, maxEpochs, stats.FormatFloat(ratio),
			stats.Summarize(profits).Mean, stats.Summarize(quality).Mean)
	}
	return []*stats.Table{t}, nil
}
