package dual

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/model"
)

// oracleIndex is the map-backed Index the per-network tables and identity
// slots replaced, kept as the oracle: demand ids and edge keys intern
// through maps in first-seen order, a new demand id taking the most
// recently released slot first, and the objective is the math/big sum of
// every value, exact at 2,200 bits and rounded once.
type oracleIndex struct {
	demandSlot map[int]int32
	demandIDs  []int
	freed      []int32 // released demand slots, the most recent last
	edgeSlot   map[model.EdgeKey]int32
	edgeKeys   []model.EdgeKey
}

func newOracleIndex() *oracleIndex {
	return &oracleIndex{demandSlot: map[int]int32{}, edgeSlot: map[model.EdgeKey]int32{}}
}

func (o *oracleIndex) demand(id int) int32 {
	if s, ok := o.demandSlot[id]; ok {
		return s
	}
	if k := len(o.freed) - 1; k >= 0 {
		s := o.freed[k]
		o.freed = o.freed[:k]
		o.demandSlot[id], o.demandIDs[s] = s, id
		return s
	}
	s := int32(len(o.demandIDs))
	o.demandSlot[id] = s
	o.demandIDs = append(o.demandIDs, id)
	return s
}

// live reports whether demand slot s holds an interned id.
func (o *oracleIndex) live(s int32) bool {
	got, ok := o.demandSlot[o.demandIDs[s]]
	return ok && got == s
}

func (o *oracleIndex) edge(k model.EdgeKey) int32 {
	if i, ok := o.edgeSlot[k]; ok {
		return i
	}
	i := int32(len(o.edgeKeys))
	o.edgeSlot[k] = i
	o.edgeKeys = append(o.edgeKeys, k)
	return i
}

// value is Σα + Σβ over the given slot extents.
func (o *oracleIndex) value(alpha, beta []float64) float64 {
	return bigSum(slices.Concat(alpha, beta))
}

// bigSum is the exact sum of terms, rounded to nearest, ties to even: 2,200
// bits hold any sum of fewer than 2^100 finite float64s.
func bigSum(terms []float64) float64 {
	sum := new(big.Float).SetPrec(2200)
	for _, x := range terms {
		sum.Add(sum, new(big.Float).SetFloat64(x))
	}
	v, _ := sum.Float64()
	return v
}

// indexSequence drives an Index and the oracle through one random sequence
// of interning, lookups, dual writes and Value calls, failing on the first
// disagreement. shape picks the key spaces:
//
//   - bit 0: demand ids break the identity at a random point (else they
//     stay 0, 1, 2, … with repeats, as on a cold build);
//   - bits 1–2: edge keys on dense networks with small edge ids, on sparse
//     networks with edge ids anywhere in 32 bits, a mix of the two, or
//     dense with the odd negative network id;
//   - bit 3: demand slots are released at random, as Apply releases a
//     departed demand's, and later ids take them.
//
// pathEntries sizes the index (0 = no path entries, so its edge side starts
// as the map). A non-nil reused index runs the sequence in place of a new one,
// after a Reset to the same sizes, which must leave nothing of its earlier
// sequences behind. Assignments are created between internings, so Value
// runs over every extent the index ever had — growth after a first Value,
// as Apply does — and most slots stay zero, as a Session's stale slots do.
func indexSequence(t testing.TB, seed int64, pathEntries, shape int, reused *Index) {
	rng := rand.New(rand.NewSource(seed))
	demands := rng.Intn(8)
	ix := NewIndexSized(demands, pathEntries)
	if reused != nil {
		reused.Reset(demands, pathEntries)
		ix = reused
	}
	o := newOracleIndex()
	breakAt := -1
	if shape&1 != 0 {
		breakAt = rng.Intn(64)
	}
	edgeShape := (shape >> 1) & 3
	release := shape&8 != 0
	randomKey := func() model.EdgeKey {
		dense := model.MakeEdgeKey(rng.Intn(4), rng.Intn(64))
		sparse := model.MakeEdgeKey(rng.Intn(1<<16), int(rng.Uint32()))
		switch edgeShape {
		case 0:
			return dense
		case 1:
			return sparse
		case 2:
			if rng.Intn(8) == 0 {
				return sparse
			}
			return dense
		default:
			if rng.Intn(16) == 0 {
				return model.MakeEdgeKey(-1-rng.Intn(3), rng.Intn(64))
			}
			return dense
		}
	}
	randomID := func() int {
		switch rng.Intn(4) {
		case 0:
			return -rng.Intn(4)
		case 1:
			return rng.Intn(1 << 40)
		default:
			return rng.Intn(o.nextID() + 2)
		}
	}
	value := func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(24)-12)) }
	var as []*Assignment
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(18); {
		case r < 5: // intern a demand id
			id := rng.Intn(o.nextID() + 1)
			if breakAt >= 0 && op >= breakAt && rng.Intn(4) == 0 {
				id = randomID()
			}
			if got, want := ix.Demand(id), o.demand(id); got != want {
				t.Fatalf("op %d: Demand(%d) = %d, oracle %d", op, id, got, want)
			}
		case r < 10: // intern an edge key
			k := randomKey()
			if got, want := ix.Edge(k), o.edge(k); got != want {
				t.Fatalf("op %d: Edge(%v) = %d, oracle %d", op, k, got, want)
			}
		case r < 12: // look up without interning, present or not
			id := randomID()
			gs, gok := ix.DemandSlot(id)
			ws, wok := o.demandSlot[id]
			if gs != ws || gok != wok {
				t.Fatalf("op %d: DemandSlot(%d) = (%d, %v), oracle (%d, %v)", op, id, gs, gok, ws, wok)
			}
			k := randomKey()
			if len(o.edgeKeys) > 0 && rng.Intn(2) == 0 {
				k = o.edgeKeys[rng.Intn(len(o.edgeKeys))]
			}
			gi, gok := ix.EdgeSlot(k)
			wi, wok := o.edgeSlot[k]
			if gi != wi || gok != wok {
				t.Fatalf("op %d: EdgeSlot(%v) = (%d, %v), oracle (%d, %v)", op, k, gi, gok, wi, wok)
			}
		case r < 13: // a new assignment over the current extent
			as = append(as, NewWithIndex(ix))
		case r < 15: // write a few duals; most slots stay zero
			if len(as) == 0 {
				continue
			}
			a := as[rng.Intn(len(as))]
			if len(a.alpha) > 0 {
				a.alpha[rng.Intn(len(a.alpha))] += value()
			}
			if len(a.beta) > 0 {
				a.beta[rng.Intn(len(a.beta))] += value()
			}
		case r < 16: // score every assignment, old extents included
			for n, a := range as {
				got, want := a.Value(), o.value(a.alpha, a.beta)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: assignment %d (extent %d/%d): Value %v, oracle %v", op, n, len(a.alpha), len(a.beta), got, want)
				}
			}
		default: // release a live demand slot; its id's lookup must miss
			if !release || len(o.demandIDs) == 0 {
				continue
			}
			s := int32(rng.Intn(len(o.demandIDs)))
			if !o.live(s) {
				continue
			}
			id := o.demandIDs[s]
			ix.ReleaseDemand(s)
			delete(o.demandSlot, id)
			o.freed = append(o.freed, s)
			if got, ok := ix.DemandSlot(id); ok {
				t.Fatalf("op %d: released demand %d still looks up to slot %d", op, id, got)
			}
		}
	}
	if ix.NumDemands() != len(o.demandIDs) || ix.NumEdges() != len(o.edgeKeys) {
		t.Fatalf("extents %d/%d, oracle %d/%d", ix.NumDemands(), ix.NumEdges(), len(o.demandIDs), len(o.edgeKeys))
	}
	for s, id := range o.demandIDs {
		if got := ix.DemandID(int32(s)); o.live(int32(s)) && got != id {
			t.Fatalf("DemandID(%d) = %d, oracle %d", s, got, id)
		}
	}
	for i, k := range o.edgeKeys {
		if got := ix.EdgeKey(int32(i)); got != k {
			t.Fatalf("EdgeKey(%d) = %v, oracle %v", i, got, k)
		}
	}
}

// nextID is the id that keeps the demand side the identity.
func (o *oracleIndex) nextID() int { return len(o.demandIDs) }

// TestIndexMatchesOracle pins the tabled and identity Index to the
// map-backed oracle: every slot, every lookup answer and the bits of every
// Value, over dense, sparse and mixed key spaces, identity broken at random
// points or never, demand slots released and reused or never, and indexes
// sized for no path entries (a map from the start), far too few
// (converting early) or plenty (staying tabled). Every sequence runs
// twice: in a new index, and in one index Reset after each earlier
// sequence, as an arena reuses its index.
func TestIndexMatchesOracle(t *testing.T) {
	reused := new(Index)
	for shape := 0; shape < 16; shape++ {
		for _, entries := range []int{0, 1, 8, 64, 4096} {
			for seed := int64(0); seed < 12; seed++ {
				indexSequence(t, seed*131+int64(shape)*17+int64(entries), entries, shape, nil)
				indexSequence(t, seed*131+int64(shape)*17+int64(entries), entries, shape, reused)
			}
		}
	}
}

func FuzzIndexMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(64), uint8(1))
	f.Add(int64(3), uint16(4096), uint8(4))
	f.Add(int64(4), uint16(8), uint8(7))
	f.Add(int64(5), uint16(64), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, entries uint16, shape uint8) {
		indexSequence(t, seed, int(entries), int(shape), nil)
	})
}
