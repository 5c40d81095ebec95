package dual

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"treesched/internal/model"
)

func TestRaiseUnitTightensConstraint(t *testing.T) {
	a := NewDense(8, 5)
	path := []int32{1, 2, 3, 4}
	crit := []int32{1, 3}
	delta := a.RaiseUnit(7, 10, path, crit)
	if want := 10.0 / 3.0; math.Abs(delta-want) > 1e-12 {
		t.Fatalf("delta = %v, want %v", delta, want)
	}
	if lhs := a.LHS(7, 1, path); math.Abs(lhs-10) > 1e-9 {
		t.Fatalf("LHS after raise = %v, want 10 (tight)", lhs)
	}
	// α got δ, each critical edge got δ, non-critical edges got nothing.
	if a.Alpha(7) != delta {
		t.Errorf("alpha = %v, want %v", a.Alpha(7), delta)
	}
	if a.Beta(2) != 0 {
		t.Errorf("non-critical edge was raised")
	}
}

func TestRaiseUnitAlreadyTight(t *testing.T) {
	a := NewDense(1, 2)
	path := []int32{1}
	a.RaiseUnit(0, 5, path, path)
	if d := a.RaiseUnit(0, 5, path, path); d != 0 {
		t.Errorf("second raise returned %v, want 0", d)
	}
}

func TestRaiseNarrowTightensConstraint(t *testing.T) {
	// Property: after RaiseNarrow the height-LP constraint is tight,
	// for any h ∈ (0,1], any |π| ≥ 1 and any prior state.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewDense(4, 8)
		h := 0.05 + 0.95*r.Float64()
		profit := 0.5 + 10*r.Float64()
		n := 1 + r.Intn(8)
		path := make([]int32, n)
		for i := range path {
			path[i] = int32(i)
		}
		k := 1 + r.Intn(n)
		crit := path[:k]
		// Random prior state.
		a.alpha[3] += r.Float64() * profit / 4
		for j := range path {
			a.AddBeta(path[j:j+1], r.Float64()/10)
		}
		if a.LHS(3, h, path) >= profit {
			return true // already satisfied; raise is a no-op
		}
		delta := a.RaiseNarrow(3, profit, h, path, crit)
		if delta <= 0 {
			return false
		}
		return math.Abs(a.LHS(3, h, path)-profit) < 1e-9*profit
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValueAccountsRaises(t *testing.T) {
	// Each unit raise with |π| critical edges adds exactly (|π|+1)·δ to the
	// dual objective (inequality (1) in Lemma 3.1 holds with equality when
	// no edges are shared).
	a := NewDense(2, 8)
	d1 := a.RaiseUnit(0, 6, []int32{1, 2}, []int32{1, 2})
	d2 := a.RaiseUnit(1, 9, []int32{5, 6, 7}, []int32{5})
	want := 3*d1 + 2*d2
	if v := a.Value(); math.Abs(v-want) > 1e-9 {
		t.Errorf("Value = %v, want %v", v, want)
	}
}

func TestSatisfiedThreshold(t *testing.T) {
	a := NewDense(1, 2)
	path := []int32{1}
	a.alpha[0] += 4
	if !a.Satisfied(0, 1, path, 0.5, 8) {
		t.Error("exactly ξ·p should satisfy")
	}
	if a.Satisfied(0, 1, path, 0.6, 8) {
		t.Error("4 < 0.6·8 should not satisfy")
	}
	// Height coefficient scales the β contribution only.
	a.AddBeta(path, 10)
	if !a.Satisfied(0, 0.3, path, 0.8, 8) { // 4 + 0.3·10 = 7 ≥ 6.4
		t.Error("height-weighted LHS should satisfy")
	}
}

// keyDual is the map-backed α/β the dense state replaced: α keyed by demand
// id and β by edge key, raised by the same rules in key space.
type keyDual struct {
	alpha map[int]float64
	beta  map[model.EdgeKey]float64
}

func (m *keyDual) lhs(demand int, coeff float64, path []model.EdgeKey) float64 {
	s := 0.0
	for _, k := range path {
		s += m.beta[k]
	}
	return m.alpha[demand] + coeff*s
}

// raise is RaiseUnit (narrow false) or RaiseNarrow over keys, returning δ.
func (m *keyDual) raise(narrow bool, demand int, profit, height float64, path, critical []model.EdgeKey) float64 {
	coeff, gain := 1.0, 1.0
	k := float64(len(critical))
	if narrow {
		coeff, gain = height, 2*k
	}
	s := profit - m.lhs(demand, coeff, path)
	if s <= 0 {
		return 0
	}
	delta := s / (k + 1)
	if narrow {
		delta = s / (1 + 2*height*k*k)
	}
	m.alpha[demand] += delta
	for _, e := range critical {
		m.beta[e] += gain * delta
	}
	return delta
}

// TestDenseMatchesKeys pins the dense methods to the key-addressed
// arithmetic they replaced: random sequences of RaiseUnit, RaiseNarrow and
// AddBeta over an index's slots, mirrored in a map keyed by demand id and
// edge key, give the same δ and LHS bits at every step, the same α and β
// read back through AlphaMap and BetaMap, and the same Value.
func TestDenseMatchesKeys(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type constraint struct {
			demand         int
			path, critical []model.EdgeKey
			slot           int32
			pathIx, critIx []int32
		}
		cons := make([]constraint, 12)
		ix := NewIndexSized(4, 64)
		for i := range cons {
			c := &cons[i]
			c.demand = rng.Intn(6)
			tree := rng.Intn(3)
			for _, e := range rng.Perm(10)[:1+rng.Intn(6)] {
				c.path = append(c.path, model.MakeEdgeKey(tree, e))
			}
			c.critical = c.path[:1+rng.Intn(min(2, len(c.path)))]
			c.slot = ix.Demand(c.demand)
			for _, k := range c.path {
				c.pathIx = append(c.pathIx, ix.Edge(k))
			}
			c.critIx = c.pathIx[:len(c.critical)]
		}
		a := NewWithIndex(ix)
		m := &keyDual{alpha: map[int]float64{}, beta: map[model.EdgeKey]float64{}}
		for step := 0; step < 200; step++ {
			c := &cons[rng.Intn(len(cons))]
			profit, height := 10*rng.Float64(), 0.5*(1-rng.Float64())
			var got, want float64
			switch rng.Intn(3) {
			case 0:
				got, want = a.RaiseUnit(c.slot, profit, c.pathIx, c.critIx), m.raise(false, c.demand, profit, 1, c.path, c.critical)
			case 1:
				got, want = a.RaiseNarrow(c.slot, profit, height, c.pathIx, c.critIx), m.raise(true, c.demand, profit, height, c.path, c.critical)
			default:
				g := rng.Float64()
				a.AddBeta(c.critIx, g)
				for _, e := range c.critical {
					m.beta[e] += g
				}
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: dense δ %v, keyed δ %v", seed, step, got, want)
			}
			if got, want := a.LHS(c.slot, height, c.pathIx), m.lhs(c.demand, height, c.path); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: dense LHS %v, keyed LHS %v", seed, step, got, want)
			}
		}
		if !reflect.DeepEqual(a.AlphaMap(), m.alpha) || !reflect.DeepEqual(a.BetaMap(), m.beta) {
			t.Fatalf("seed %d: AlphaMap/BetaMap differ from the keyed state", seed)
		}
		var terms []float64
		for _, v := range m.alpha {
			terms = append(terms, v)
		}
		for _, v := range m.beta {
			terms = append(terms, v)
		}
		if got, want := a.Value(), bigSum(terms); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: Value %v, exact sum of the keyed state %v", seed, got, want)
		}
	}
}

func TestWeakDualityOnToyInstance(t *testing.T) {
	// Two instances fighting over one edge, profits 3 and 5. Raise both via
	// the framework order: both constraints end satisfied, so λ =
	// min(1, min LHS/p) = 1 and the bound Value/λ must dominate the true
	// optimum (5).
	a := NewDense(2, 1)
	shared := []int32{0}
	a.RaiseUnit(0, 3, shared, shared) // δ=1.5, α0=1.5, β=1.5
	a.RaiseUnit(1, 5, shared, shared) // LHS=1.5, s=3.5, δ=1.75
	lambda := 1.0
	for d, p := range []float64{3, 5} {
		lambda = min(lambda, a.LHS(int32(d), 1, shared)/p)
	}
	if math.Abs(lambda-1) > 1e-9 {
		t.Fatalf("both constraints satisfied, λ = %v, want 1", lambda)
	}
	if b := a.Value() / lambda; b < 5 {
		t.Errorf("Bound %v below optimum 5", b)
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
