package dual

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/model"
)

// decodeTerms reads one term per 9 bytes: a kind byte, then 8 payload
// bytes (little-endian, zero-padded at the end). Each kind maps its payload
// to a finite, non-negative float64:
//
//   - 0: any such bit pattern (the sign is dropped, and an all-ones
//     exponent loses its top bit);
//   - 1: a subnormal, or zero;
//   - 2: a power of two from 2^-1074 to 2^1023, which with other terms
//     lands sums exactly between two floats;
//   - 3: a value in [2^1023, MaxFloat64], two of which overflow.
func decodeTerms(data []byte) []float64 {
	var terms []float64
	for ; len(data) > 0; data = data[min(9, len(data)):] {
		var buf [8]byte
		copy(buf[:], data[1:min(9, len(data))])
		u := binary.LittleEndian.Uint64(buf[:])
		var b uint64
		switch data[0] % 4 {
		case 0:
			b = u &^ (1 << 63)
			if b>>52 == 0x7ff {
				b &^= 1 << 62
			}
		case 1:
			b = u & (1<<52 - 1)
		case 2:
			b = math.Float64bits(math.Ldexp(1, int(u%2098)-1074))
		default:
			b = 0x7fe<<52 | u&(1<<52-1)
		}
		terms = append(terms, math.Float64frombits(b))
	}
	return terms
}

// encodeTerm is the decodeTerms record of a term of the given kind.
func encodeTerm(kind byte, payload uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{kind}, payload)
}

// exact sums terms in order through a Sum, carrying early after every
// term whose bit is set in carries: a carry may fall anywhere in a sum.
func exact(terms []float64, carries uint64) float64 {
	var s Sum
	for i, x := range terms {
		s.Add(x)
		if carries>>(i%64)&1 != 0 {
			s.carry()
		}
	}
	return s.Round()
}

// grouped sums terms as the sharded engine sums a dual: term i goes to the
// partial sum groups[i%len(groups)] % numGroups (group 0 when groups is
// empty), and the partials merge into one Sum in the order perm gives.
func grouped(terms []float64, groups []byte, perm []int) float64 {
	var parts [numGroups]Sum
	for i, x := range terms {
		g := 0
		if len(groups) > 0 {
			g = int(groups[i%len(groups)]) % numGroups
		}
		parts[g].Add(x)
	}
	var s Sum
	for k, g := range perm {
		if k%2 == 0 {
			parts[g].Carry() // merged both carried and not
		}
		s.Merge(&parts[g])
	}
	return s.Round()
}

// numGroups is the number of partial sums grouped splits terms into.
const numGroups = 8

// removeReadd sums terms as the warm merge keeps its running totals: term
// i goes to the partial sum groups[i%len(groups)] % numGroups, every
// partial merges into one Sum, each group whose bit is set in out is
// subtracted and then merged back, in the order perm gives, and the sum
// must round to the bits math/big gives the terms it holds after the
// removals and at the end. Partials are carried before they merge or
// not, and the sum is rounded (which carries it) after a step or not, as
// the bits of carries say, so a Sub or Merge meets carried and uncarried
// operands alike.
func removeReadd(t *testing.T, terms []float64, groups []byte, perm []int, out uint8, carries uint64) {
	t.Helper()
	var parts [numGroups]Sum
	var members [numGroups][]float64
	for i, x := range terms {
		g := 0
		if len(groups) > 0 {
			g = int(groups[i%len(groups)]) % numGroups
		}
		parts[g].Add(x)
		members[g] = append(members[g], x)
	}
	var s Sum
	for k, g := range perm {
		if carries>>k&1 != 0 {
			parts[g].Carry()
		}
		s.Merge(&parts[g])
	}
	var kept [numGroups]bool
	for g := range kept {
		kept[g] = true
	}
	check := func(step string) {
		t.Helper()
		var left []float64
		for g, in := range kept {
			if in {
				left = append(left, members[g]...)
			}
		}
		if got, want := s.Round(), bigSum(left); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: sum of the groups kept %v = %v, math/big %v", step, kept, got, want)
		}
	}
	for k, g := range perm {
		if out>>g&1 != 0 {
			s.Sub(&parts[g])
			kept[g] = false
			if carries>>(8+k)&1 != 0 {
				check("remove")
			}
		}
	}
	check("removed")
	for k, g := range perm {
		if !kept[g] {
			s.Merge(&parts[g])
			kept[g] = true
			if carries>>(16+k)&1 != 0 {
				check("re-add")
			}
		}
	}
	check("all")
}

// FuzzExactSum pins the accumulator to the math/big reference, bit for bit,
// in the given order, reversed and shuffled, and split into fuzz-chosen
// groups whose partial sums merge in shuffled order, and then leave
// (Sub) and come back (removeReadd).
func FuzzExactSum(f *testing.F) {
	pow2 := func(e int) []byte { return encodeTerm(2, uint64(e+1074)) }
	bits := func(x float64) []byte { return encodeTerm(0, math.Float64bits(x)) }
	apart := []byte{0, 1, 2, 3} // one group per term
	f.Add(int64(0), []byte{}, []byte{})
	f.Add(int64(1), slices.Concat(bits(1), pow2(-53)), apart)                              // tie, down to even
	f.Add(int64(2), slices.Concat(bits(1+0x1p-52), pow2(-53)), apart)                      // tie, up to even
	f.Add(int64(3), slices.Concat(bits(1), pow2(-53), pow2(-1074)), apart)                 // sticky breaks the tie
	f.Add(int64(4), slices.Concat(bits(math.MaxFloat64), pow2(970)), apart)                // half an ulp past the top: +Inf
	f.Add(int64(5), slices.Concat(bits(math.MaxFloat64), pow2(969)), []byte{})             // a quarter ulp: MaxFloat64
	f.Add(int64(6), slices.Concat(encodeTerm(3, 1), encodeTerm(3, 2)), apart)              // overflow
	f.Add(int64(7), slices.Concat(encodeTerm(1, 1<<52-1), encodeTerm(1, 1)), apart)        // subnormals to the least normal
	f.Add(int64(8), slices.Concat(bits(1e300), bits(1), bits(1e-300), pow2(-1074)), apart) // wide span
	f.Fuzz(func(t *testing.T, seed int64, data, groups []byte) {
		terms := decodeTerms(data)
		want := bigSum(terms)
		carries := uint64(seed)
		if got := exact(terms, carries); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sum of %v = %v, math/big %v", terms, got, want)
		}
		slices.Reverse(terms)
		if got := exact(terms, carries>>1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reversed sum of %v = %v, math/big %v", terms, got, want)
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		if got := exact(terms, 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("shuffled sum of %v = %v, math/big %v", terms, got, want)
		}
		if got := grouped(terms, groups, rng.Perm(numGroups)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sum of %v in groups %v = %v, math/big %v", terms, groups, got, want)
		}
		removeReadd(t, terms, groups, rng.Perm(numGroups), uint8(seed>>8), carries)
	})
}

// TestSumSubMatchesOracle removes and re-adds random groups of random
// terms — among them ones whose removal leaves every word of the sum to
// borrow, and sums that empty out — and checks every step against
// math/big, bit for bit.
func TestSumSubMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		terms := make([]float64, rng.Intn(40))
		for i := range terms {
			switch rng.Intn(4) {
			case 0:
				terms[i] = math.Ldexp(1, rng.Intn(2098)-1074)
			case 1:
				terms[i] = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
			case 2:
				terms[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(600)-300))
			default:
				terms[i] = rng.Float64()
			}
		}
		groups := make([]byte, 1+rng.Intn(len(terms)+1))
		for i := range groups {
			groups[i] = byte(rng.Intn(numGroups))
		}
		removeReadd(t, terms, groups, rng.Perm(numGroups), uint8(rng.Intn(256)), rng.Uint64())
	}
}

// TestValueIgnoresNumbering puts one multiset of dual values into two
// assignments whose indexes number them differently: identity demand slots
// and tabled edges interned in key order, against sparse demand ids and
// map-backed edges interned in shuffled order, with stale zero slots mixed
// in. Value must give the same bits, those of the exact sum.
func TestValueIgnoresNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(8)-4)) }
	alphas, betas := make([]float64, 60), make([]float64, 90)
	keys := make([]model.EdgeKey, len(betas))
	for i := range alphas {
		alphas[i] = value()
	}
	for j := range betas {
		betas[j], keys[j] = value(), model.MakeEdgeKey(j/30, j%30)
	}

	denseIx := NewIndexSized(len(alphas), len(betas))
	for i := range alphas {
		denseIx.Demand(i)
	}
	for j := range betas {
		denseIx.Edge(keys[j])
	}
	dense := NewWithIndex(denseIx)
	for i, x := range alphas {
		dense.alpha[denseIx.Demand(i)] += x
	}
	for j, x := range betas {
		dense.beta[denseIx.Edge(keys[j])] += x
	}

	hashedIx := NewIndexSized(0, 0)
	alphaSlot, betaSlot := make([]int32, len(alphas)), make([]int32, len(betas))
	for n, i := range rng.Perm(len(alphas)) {
		hashedIx.Demand(-1 - n) // a stale slot
		alphaSlot[i] = hashedIx.Demand(1000 + 7*i)
	}
	for _, j := range rng.Perm(len(betas)) {
		hashedIx.Edge(model.MakeEdgeKey(9, j)) // a stale index
		betaSlot[j] = hashedIx.Edge(keys[j])
	}
	hashed := NewWithIndex(hashedIx)
	for i, x := range alphas {
		hashed.alpha[alphaSlot[i]] += x
	}
	for j, x := range betas {
		hashed.beta[betaSlot[j]] += x
	}
	if denseIx.Hashed() || !hashedIx.Hashed() {
		t.Fatalf("hashed: dense index %v, shuffled index %v", denseIx.Hashed(), hashedIx.Hashed())
	}

	fold := func(a *Assignment) float64 {
		v := 0.0
		for _, x := range slices.Concat(a.alpha, a.beta) {
			v += x
		}
		return v
	}
	if fold(dense) == fold(hashed) {
		t.Fatal("the two slot orders fold to the same bits, so they cannot tell an ordered sum from an exact one")
	}
	want := bigSum(slices.Concat(alphas, betas))
	for _, a := range []*Assignment{dense, hashed} {
		if got := a.Value(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Value over %d/%d slots = %v, exact sum %v", len(a.alpha), len(a.beta), got, want)
		}
	}
}

// TestValueAllocatesNothing calls Value on assignments over a hashed index
// whose demand side grew between their constructions, as a Session's index
// grows between rounds that intern arrivals.
func TestValueAllocatesNothing(t *testing.T) {
	const runs = 50
	ix := NewIndexSized(0, 64)
	as := make([]*Assignment, runs+1) // AllocsPerRun calls once more to warm up
	for k := range as {
		slot, e := ix.Demand(1000+3*k), ix.Edge(model.MakeEdgeKey(0, k%8))
		a := NewWithIndex(ix)
		a.alpha[slot] += float64(k + 1)
		a.beta[e] += 0.5
		as[k] = a
	}
	if !ix.Hashed() {
		t.Fatal("index not hashed")
	}
	next, sink := 0, 0.0
	allocs := testing.AllocsPerRun(runs, func() {
		sink += as[next].Value()
		next++
	})
	if allocs != 0 || next != len(as) {
		t.Fatalf("Value allocated %v times per call over %d calls (sum %v)", allocs, next, sink)
	}
}
