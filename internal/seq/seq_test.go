package seq_test

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/seq"
	"treesched/internal/verify"
	"treesched/internal/workload"
)

func smallItems(t *testing.T, seed int64, unitHeights bool) []engine.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.TreeConfig{Vertices: 10, Trees: 2, Demands: 7, ProfitRatio: 4}
	if !unitHeights {
		cfg.Heights = workload.MixedHeights
		cfg.HMin = 0.2
	}
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// bruteRef is an exhaustive reference: enumerate all subsets (for very small
// item counts) and keep the best feasible one.
func bruteRef(items []engine.Item, unit bool) float64 {
	n := len(items)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		profit := 0.0
		usage := map[model.EdgeKey]float64{}
		demands := map[int]bool{}
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			it := &items[i]
			if demands[it.Demand] {
				ok = false
				break
			}
			demands[it.Demand] = true
			need := it.Height
			if unit {
				need = 1
			}
			for _, e := range it.Edges {
				usage[e] += need
				if usage[e] > 1+1e-9 {
					ok = false
					break
				}
			}
			profit += it.Profit
		}
		if ok && profit > best {
			best = profit
		}
	}
	return best
}

func TestBruteMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		items := smallItems(t, seed, true)
		if len(items) > 14 {
			items = items[:14]
			for i := range items {
				items[i].ID = i
			}
		}
		got, sel := seq.Brute(items, true)
		want := bruteRef(items, true)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: Brute = %v, exhaustive = %v", seed, got, want)
		}
		if err := verify.Feasible(items, sel, engine.Unit); err != nil {
			t.Fatalf("seed %d: Brute selection infeasible: %v", seed, err)
		}
		total := 0.0
		for _, id := range sel {
			total += items[id].Profit
		}
		if math.Abs(total-got) > 1e-9 {
			t.Fatalf("seed %d: selection profit %v != reported %v", seed, total, got)
		}
	}
}

func TestBruteWithHeights(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		items := smallItems(t, 50+seed, false)
		if len(items) > 12 {
			items = items[:12]
			for i := range items {
				items[i].ID = i
			}
		}
		got, sel := seq.Brute(items, false)
		want := bruteRef(items, false)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: Brute = %v, exhaustive = %v", seed, got, want)
		}
		if err := verify.FeasibleHeights(items, sel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBruteEmpty(t *testing.T) {
	p, sel := seq.Brute(nil, true)
	if p != 0 || len(sel) != 0 {
		t.Errorf("Brute(nil) = %v, %v", p, sel)
	}
}

func TestAppendixAThreeApproximation(t *testing.T) {
	// Appendix A: ∆ = 2, λ = 1 ⇒ 3-approximation (Lemma 3.1); against
	// brute force on small instances the ratio must hold, and the trace
	// must satisfy the interference property.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 12, Trees: 2, Demands: 8, ProfitRatio: 8,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := seq.AppendixA(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delta > 2 {
			t.Fatalf("seed %d: Appendix A ∆ = %d > 2", seed, res.Delta)
		}
		if err := verify.Feasible(res.Items, res.Selected, engine.Unit); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.Interference(res.Items, res.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, _ := seq.Brute(res.Items, true)
		if opt > res.Bound+1e-6 {
			t.Fatalf("seed %d: optimum %v above dual bound %v", seed, opt, res.Bound)
		}
		if res.Profit*3 < opt-1e-9 {
			t.Fatalf("seed %d: ratio %v exceeds 3", seed, opt/res.Profit)
		}
	}
}

func TestAppendixASingleTreeTwoApproximation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 14, Trees: 1, Demands: 9, ProfitRatio: 8,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := seq.AppendixA(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := seq.Brute(res.Items, true)
		if res.Profit*2 < opt-1e-9 {
			t.Fatalf("seed %d: single-tree ratio %v exceeds 2", seed, opt/res.Profit)
		}
		if opt > res.Bound+1e-6 {
			t.Fatalf("seed %d: optimum %v above bound %v", seed, opt, res.Bound)
		}
	}
}

func TestLineExactSingleResource(t *testing.T) {
	// Three disjoint intervals plus one overlapping pair.
	items := []model.LineDemandInstance{
		{ID: 0, Demand: 0, Resource: 0, Start: 1, End: 3, Profit: 4},
		{ID: 1, Demand: 1, Resource: 0, Start: 2, End: 5, Profit: 6},
		{ID: 2, Demand: 2, Resource: 0, Start: 6, End: 8, Profit: 3},
		{ID: 3, Demand: 3, Resource: 0, Start: 9, End: 9, Profit: 2},
	}
	// Optimal: {1, 2, 3} = 11.
	if got := seq.LineExactSingleResource(items); got != 11 {
		t.Errorf("LineExact = %v, want 11", got)
	}
}

func TestLineExactRejectsDisjointSameDemand(t *testing.T) {
	items := []model.LineDemandInstance{
		{ID: 0, Demand: 0, Resource: 0, Start: 1, End: 2, Profit: 1},
		{ID: 1, Demand: 0, Resource: 0, Start: 5, End: 6, Profit: 1},
	}
	if got := seq.LineExactSingleResource(items); got != -1 {
		t.Errorf("expected precondition rejection, got %v", got)
	}
}

func TestLineExactMatchesBruteOnTightWindows(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1100 + seed))
		in, err := workload.RandomLineInstance(workload.LineConfig{
			Slots: 20, Resources: 1, Demands: 8, ProfitRatio: 4,
			ProcMin: 2, ProcMax: 5, WindowSlack: 1,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		lineInsts := in.Expand()
		exact := seq.LineExactSingleResource(lineInsts)
		if exact < 0 {
			continue // slack produced time-disjoint duplicates; skip
		}
		items, err := engine.BuildLineItems(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) > 22 {
			continue
		}
		brute, _ := seq.Brute(items, true)
		if math.Abs(exact-brute) > 1e-9 {
			t.Fatalf("seed %d: DP = %v, brute = %v", seed, exact, brute)
		}
	}
}

// mapDual is the map-backed α/β that AppendixA kept before it ran on the
// engine's dense views, with its key arithmetic: α keyed by demand id, β by
// edge key, an absent key reading 0, and the objective the math/big sum of
// every value, exact at 2,200 bits and rounded once.
type mapDual struct {
	alpha map[int]float64
	beta  map[model.EdgeKey]float64
}

func (m *mapDual) lhs(it *engine.Item) float64 {
	s := 0.0
	for _, e := range it.Edges {
		s += m.beta[e]
	}
	return m.alpha[it.Demand] + 1*s
}

// raise is Appendix A's raise of it: on a single tree δ = s/|π| on β
// alone, else the unit rule δ = s/(|π|+1) on α and β.
func (m *mapDual) raise(it *engine.Item, singleTree bool) float64 {
	if singleTree {
		s := 0.0
		for _, e := range it.Edges {
			s += m.beta[e]
		}
		delta := (it.Profit - s) / float64(len(it.Critical))
		for _, e := range it.Critical {
			m.beta[e] += delta
		}
		return delta
	}
	s := it.Profit - m.lhs(it)
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

// bound is Lemma 3.1's Value/λ with λ = min(1, min LHS/p), 0 for no items.
func (m *mapDual) bound(items []engine.Item) float64 {
	if len(items) == 0 {
		return 0
	}
	lambda := 1.0
	for i := range items {
		lambda = math.Min(lambda, m.lhs(&items[i])/items[i].Profit)
	}
	if lambda <= 0 {
		return math.Inf(1)
	}
	return m.value() / lambda
}

// TestAppendixAMatchesMapReplay pins AppendixA to the map arithmetic it
// replaced: its trace replayed through mapDual raises only items the map
// state holds unsatisfied, with every δ bit for bit the traced one;
// Selected is the map greedy's pop of the trace (last raise first, an item
// taken when its demand and its path's edges are unused); and Bound has
// the bits of mapDual's bound. Single-tree and multi-tree instances, 40
// seeds each, and the instance with no demands.
func TestAppendixAMatchesMapReplay(t *testing.T) {
	in, err := workload.RandomTreeInstance(workload.TreeConfig{Vertices: 8, Trees: 2, Demands: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	in.Demands = nil
	empty, err := seq.AppendixA(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Selected) != 0 || empty.Profit != 0 || empty.Bound != 0 {
		t.Fatalf("no demands: selected %v, profit %v, bound %v; want none, 0, 0", empty.Selected, empty.Profit, empty.Bound)
	}
	for _, trees := range []int{1, 3} {
		for seed := int64(0); seed < 40; seed++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: 20, Trees: trees, Demands: 12, ProfitRatio: 8,
			}, rand.New(rand.NewSource(1300+seed)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := seq.AppendixA(in)
			if err != nil {
				t.Fatal(err)
			}
			m := &mapDual{alpha: map[int]float64{}, beta: map[model.EdgeKey]float64{}}
			for i, ev := range res.Trace.Events {
				it := &res.Items[ev.Item]
				if dual.Meets(m.lhs(it), 1, it.Profit) {
					t.Fatalf("trees %d seed %d: event %d raises item %d, which the map state holds satisfied", trees, seed, i, ev.Item)
				}
				if delta := m.raise(it, trees == 1); math.Float64bits(delta) != math.Float64bits(ev.Delta) {
					t.Fatalf("trees %d seed %d: event %d (item %d): δ %v, map δ %v", trees, seed, i, ev.Item, ev.Delta, delta)
				}
			}
			var want []int
			usedDemand, usedEdge := map[int]bool{}, map[model.EdgeKey]bool{}
		pop:
			for i := len(res.Trace.Events) - 1; i >= 0; i-- {
				it := &res.Items[res.Trace.Events[i].Item]
				if usedDemand[it.Demand] {
					continue
				}
				for _, e := range it.Edges {
					if usedEdge[e] {
						continue pop
					}
				}
				usedDemand[it.Demand] = true
				for _, e := range it.Edges {
					usedEdge[e] = true
				}
				want = append(want, it.ID)
			}
			sort.Ints(want)
			if !slices.Equal(res.Selected, want) {
				t.Fatalf("trees %d seed %d: selected %v, map greedy %v", trees, seed, res.Selected, want)
			}
			if got, want := res.Bound, m.bound(res.Items); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trees %d seed %d: bound %v, map bound %v", trees, seed, got, want)
			}
		}
	}
}
