package dual

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"treesched/internal/model"
)

func keyPath(tree int, edges ...int) []model.EdgeKey {
	out := make([]model.EdgeKey, len(edges))
	for i, e := range edges {
		out[i] = model.MakeEdgeKey(tree, e)
	}
	return out
}

func TestRaiseUnitTightensConstraint(t *testing.T) {
	a := New()
	path := keyPath(0, 1, 2, 3, 4)
	crit := keyPath(0, 1, 3)
	delta := a.RaiseUnitKeys(7, 10, path, crit)
	if want := 10.0 / 3.0; math.Abs(delta-want) > 1e-12 {
		t.Fatalf("delta = %v, want %v", delta, want)
	}
	if lhs := a.LHSKeys(7, 1, path); math.Abs(lhs-10) > 1e-9 {
		t.Fatalf("LHS after raise = %v, want 10 (tight)", lhs)
	}
	// α got δ, each critical edge got δ, non-critical edges got nothing.
	if a.AlphaOf(7) != delta {
		t.Errorf("alpha = %v, want %v", a.AlphaOf(7), delta)
	}
	if a.BetaOf(model.MakeEdgeKey(0, 2)) != 0 {
		t.Errorf("non-critical edge was raised")
	}
}

func TestRaiseUnitAlreadyTight(t *testing.T) {
	a := New()
	path := keyPath(0, 1)
	a.RaiseUnitKeys(0, 5, path, path)
	if d := a.RaiseUnitKeys(0, 5, path, path); d != 0 {
		t.Errorf("second raise returned %v, want 0", d)
	}
}

func TestRaiseNarrowTightensConstraint(t *testing.T) {
	// Property: after RaiseNarrow the height-LP constraint is tight,
	// for any h ∈ (0,1], any |π| ≥ 1 and any prior state.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := New()
		h := 0.05 + 0.95*r.Float64()
		profit := 0.5 + 10*r.Float64()
		n := 1 + r.Intn(8)
		path := make([]model.EdgeKey, n)
		for i := range path {
			path[i] = model.MakeEdgeKey(0, i)
		}
		k := 1 + r.Intn(n)
		crit := path[:k]
		// Random prior state.
		a.AddAlphaOf(3, r.Float64()*profit/4)
		for _, e := range path {
			a.AddBetaOf(e, r.Float64()/10)
		}
		if a.LHSKeys(3, h, path) >= profit {
			return true // already satisfied; raise is a no-op
		}
		delta := a.RaiseNarrowKeys(3, profit, h, path, crit)
		if delta <= 0 {
			return false
		}
		return math.Abs(a.LHSKeys(3, h, path)-profit) < 1e-9*profit
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValueAccountsRaises(t *testing.T) {
	// Each unit raise with |π| critical edges adds exactly (|π|+1)·δ to the
	// dual objective (inequality (1) in Lemma 3.1 holds with equality when
	// no edges are shared).
	a := New()
	d1 := a.RaiseUnitKeys(0, 6, keyPath(0, 1, 2), keyPath(0, 1, 2))
	d2 := a.RaiseUnitKeys(1, 9, keyPath(0, 5, 6, 7), keyPath(0, 5))
	want := 3*d1 + 2*d2
	if v := a.Value(); math.Abs(v-want) > 1e-9 {
		t.Errorf("Value = %v, want %v", v, want)
	}
}

func TestSatisfiedThreshold(t *testing.T) {
	a := New()
	path := keyPath(0, 1)
	a.AddAlphaOf(0, 4)
	if !a.SatisfiedKeys(0, 1, path, 0.5, 8) {
		t.Error("exactly ξ·p should satisfy")
	}
	if a.SatisfiedKeys(0, 1, path, 0.6, 8) {
		t.Error("4 < 0.6·8 should not satisfy")
	}
	// Height coefficient scales the β contribution only.
	a.AddBetaOf(path[0], 10)
	if !a.SatisfiedKeys(0, 0.3, path, 0.8, 8) { // 4 + 0.3·10 = 7 ≥ 6.4
		t.Error("height-weighted LHS should satisfy")
	}
}

// TestDenseMatchesKeys pins the dense hot-path methods to the key-addressed
// compatibility layer: the same logical operations through either surface
// must read and write the exact same state.
func TestDenseMatchesKeys(t *testing.T) {
	ix := NewIndex()
	a := NewWithIndex(ix)
	path := keyPath(0, 1, 2, 3)
	crit := keyPath(0, 2)
	slot := ix.Demand(5)
	pathIdx := ix.Path(path)
	critIdx := ix.Path(crit)

	d1 := a.RaiseUnit(slot, 8, pathIdx, critIdx)
	b := New()
	d2 := b.RaiseUnitKeys(5, 8, path, crit)
	if d1 != d2 {
		t.Fatalf("dense delta %v != keys delta %v", d1, d2)
	}
	if a.LHS(slot, 1, pathIdx) != b.LHSKeys(5, 1, path) {
		t.Errorf("LHS diverged: %v vs %v", a.LHS(slot, 1, pathIdx), b.LHSKeys(5, 1, path))
	}
	if a.BetaSum(pathIdx) != b.BetaSumKeys(path) {
		t.Errorf("BetaSum diverged")
	}
	if a.Value() != b.Value() {
		t.Errorf("Value diverged: %v vs %v", a.Value(), b.Value())
	}
}

func TestLambdaAndBound(t *testing.T) {
	a := New()
	p1 := keyPath(0, 1)
	p2 := keyPath(0, 2)
	a.AddAlphaOf(0, 5) // constraint 0: LHS 5, p 10 -> ratio 0.5
	a.AddAlphaOf(1, 9) // constraint 1: LHS 9, p 9  -> ratio 1
	cons := []ConstraintView{
		{Demand: 0, Coeff: 1, Profit: 10, Path: p1},
		{Demand: 1, Coeff: 1, Profit: 9, Path: p2},
	}
	if l := a.Lambda(cons); math.Abs(l-0.5) > 1e-12 {
		t.Fatalf("Lambda = %v, want 0.5", l)
	}
	if b := a.Bound(cons); math.Abs(b-28) > 1e-9 { // (5+9)/0.5
		t.Fatalf("Bound = %v, want 28", b)
	}
	if l := a.Lambda(nil); l != 0 {
		t.Errorf("Lambda(nil) = %v, want 0", l)
	}
	if b := New().Bound(cons); !math.IsInf(b, 1) {
		t.Errorf("Bound of empty assignment = %v, want +Inf", b)
	}
}

// TestLambdaZeroProfitGuard is the regression test for the NaN/±Inf poison:
// a constraint with p(d) ≤ 0 used to contribute LHS/0 (or LHS/negative) to
// the minimum, turning Lambda and hence Bound into NaN or ±Inf. Profitless
// constraints must be skipped.
func TestLambdaZeroProfitGuard(t *testing.T) {
	a := New()
	p1 := keyPath(0, 1)
	a.AddAlphaOf(0, 5)
	cons := []ConstraintView{
		{Demand: 0, Coeff: 1, Profit: 10, Path: p1}, // ratio 0.5
		{Demand: 1, Coeff: 1, Profit: 0, Path: keyPath(0, 2)},
		{Demand: 2, Coeff: 1, Profit: -3, Path: keyPath(0, 3)},
	}
	l := a.Lambda(cons)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("Lambda = %v; zero-profit constraint poisoned it", l)
	}
	if math.Abs(l-0.5) > 1e-12 {
		t.Fatalf("Lambda = %v, want 0.5 (profitless constraints skipped)", l)
	}
	b := a.Bound(cons)
	if math.IsNaN(b) || b < 0 {
		t.Fatalf("Bound = %v; want a finite nonnegative bound", b)
	}
	// All constraints profitless: no profit to certify against.
	onlyZero := []ConstraintView{{Demand: 0, Coeff: 1, Profit: 0, Path: p1}}
	if l := a.Lambda(onlyZero); l != 0 {
		t.Errorf("Lambda over profitless set = %v, want 0", l)
	}
	if b := a.Bound(onlyZero); !math.IsInf(b, 1) {
		t.Errorf("Bound over profitless set = %v, want +Inf", b)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New()
	a.RaiseUnitKeys(0, 5, keyPath(0, 1), keyPath(0, 1))
	c := a.Clone()
	c.RaiseUnitKeys(1, 7, keyPath(0, 2), keyPath(0, 2))
	if a.AlphaOf(1) != 0 {
		t.Error("clone mutated the original")
	}
	if a.Value() == c.Value() {
		t.Error("clone should have diverged")
	}
}

func TestWeakDualityOnToyInstance(t *testing.T) {
	// Two instances fighting over one edge, profits 3 and 5. Raise both via
	// the framework order; the bound must dominate the true optimum (5).
	a := New()
	shared := keyPath(0, 9)
	a.RaiseUnitKeys(0, 3, shared, shared) // δ=1.5, α0=1.5, β=1.5
	a.RaiseUnitKeys(1, 5, shared, shared) // LHS=1.5, s=3.5, δ=1.75
	cons := []ConstraintView{
		{Demand: 0, Coeff: 1, Profit: 3, Path: shared},
		{Demand: 1, Coeff: 1, Profit: 5, Path: shared},
	}
	if l := a.Lambda(cons); math.Abs(l-1) > 1e-9 {
		t.Fatalf("both constraints tight, Lambda = %v, want 1", l)
	}
	if b := a.Bound(cons); b < 5 {
		t.Errorf("Bound %v below optimum 5", b)
	}
}

// BenchmarkAssignmentClone measures the cost of snapshotting the dual state
// — the operation a per-step trace of dual evolution would pay once per
// step. With dense slices it is two slice copies; the sizes mirror the
// m=768 engine workload (~1.5k demands, ~3k interned edges).
func BenchmarkAssignmentClone(b *testing.B) {
	for _, size := range []struct {
		name           string
		demands, edges int
	}{
		{"m=48", 70, 200},
		{"m=768", 1510, 3072},
	} {
		b.Run(size.name, func(b *testing.B) {
			ix := NewIndex()
			a := NewWithIndex(ix)
			for d := 0; d < size.demands; d++ {
				a.AddAlphaOf(d, float64(d)+0.5)
			}
			for e := 0; e < size.edges; e++ {
				a.AddBetaOf(model.MakeEdgeKey(0, e), float64(e)+0.25)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := a.Clone()
				if c.AlphaOf(0) != a.AlphaOf(0) {
					b.Fatal("clone diverged")
				}
			}
		})
	}
}

// TestRaisesNeverLowerLHS is the monotonicity the engine's compacted
// satisfaction scan rests on: over random sequences of RaiseUnit,
// RaiseNarrow and AddBeta (with the non-negative gains the protocol uses,
// and raise profits both above and below the current LHS), no tracked
// constraint's computed LHS ever falls, a constraint satisfied at threshold
// t stays satisfied at t for the rest of the sequence, and one satisfied at
// t is satisfied at every t′ ≤ t.
func TestRaisesNeverLowerLHS(t *testing.T) {
	thresholds := []float64{0, 1.0 / 5.2, 0.5, 1 - 14.0/15, 0.9, 1 - 1e-9, 1}
	slices.Sort(thresholds)
	type constraint struct {
		slot           int32
		coeff, profit  float64
		path, critical []int32
	}
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nd, ne := 1+rng.Intn(6), 2+rng.Intn(12)
		a := NewDense(nd, ne)
		cons := make([]constraint, 16)
		for i := range cons {
			path := rng.Perm(ne)[:1+rng.Intn(ne)]
			c := constraint{slot: int32(rng.Intn(nd)), coeff: 1, profit: 0.05 + 10*rng.Float64()}
			for _, e := range path {
				c.path = append(c.path, int32(e))
			}
			c.critical = c.path[:1+rng.Intn(len(c.path))]
			if rng.Intn(2) == 0 {
				c.coeff = 0.5 * (1 - rng.Float64()) // (0, 1/2]
			}
			cons[i] = c
		}
		lhs := make([]float64, len(cons))
		sat := make([][]bool, len(cons))
		for i := range sat {
			sat[i] = make([]bool, len(thresholds))
		}
		for step := 0; step < 300; step++ {
			c := &cons[rng.Intn(len(cons))]
			profit := c.profit * 2 * rng.Float64()
			switch rng.Intn(3) {
			case 0:
				a.RaiseUnit(c.slot, profit, c.path, c.critical)
			case 1:
				a.RaiseNarrow(c.slot, profit, 0.5*(1-rng.Float64()), c.path, c.critical)
			default:
				a.AddBeta(c.critical, rng.Float64()*rng.Float64())
			}
			for i := range cons {
				c := &cons[i]
				v := a.LHS(c.slot, c.coeff, c.path)
				if v < lhs[i] {
					t.Fatalf("seed %d step %d: constraint %d LHS fell %v → %v", seed, step, i, lhs[i], v)
				}
				lhs[i] = v
				for k, th := range thresholds {
					ok := a.Satisfied(c.slot, c.coeff, c.path, th, c.profit)
					if ok != Meets(v, th, c.profit) {
						t.Fatalf("seed %d step %d: Satisfied and Meets disagree", seed, step)
					}
					if sat[i][k] && !ok {
						t.Fatalf("seed %d step %d: constraint %d fell out of %v-satisfaction", seed, step, i, th)
					}
					if ok {
						for _, lower := range thresholds[:k] {
							if !Meets(v, lower, c.profit) {
								t.Fatalf("seed %d step %d: constraint %d satisfied at %v but not at %v", seed, step, i, th, lower)
							}
						}
					}
					sat[i][k] = ok
				}
			}
		}
	}
}
