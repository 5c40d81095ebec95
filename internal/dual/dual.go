// Package dual maintains the dual assignment of the paper's LP (§3.1, §6.1):
// a value α(a) per demand and β(e) per edge. It implements the raise rules
// of the two-phase framework for both the unit-height case (§3.2) and the
// narrow-instance case (§6.1), the ξ-satisfaction test, and the exact dual
// objective that the weak-duality bound of Lemma 3.1 scales.
//
// # Dense indexed state
//
// The inner loop of the framework tests ξ-satisfaction —
// α(a) + h·Σ_{e∈path} β(e) ≥ ξ·p(d) — for every item that can still be
// unsatisfied, and a map-backed representation would pay an EdgeKey hash
// per path edge on every test. Meets is the one comparison every such test
// applies. The raise rules only ever add non-negative amounts, so no
// computed LHS falls and Meets, monotone in its LHS and its threshold,
// never revokes a verdict; the engine relies on that to re-test only the
// items still unsatisfied.
//
// Every assignment is dense over a complete index: α and β are []float64
// slices with one slot per demand slot and per edge index of an Index that
// interned the whole item set first — demand ids and EdgeKeys to
// contiguous int32 slots, without hashing where the key space is dense
// (identity demand slots, per-network edge tables) — or, for NewDense, of
// a complete numbering the caller keeps itself. The methods take
// precomputed slot and index lists (the views the engine builds once per
// item set) and run as tight loops over int32 slices. AlphaMap and
// BetaMap are the one key-addressed view: they read an assignment back by
// demand id and edge key, which is how tests compare executions whose
// slots are numbered differently.
//
// The arithmetic is operation-for-operation identical to a map-backed
// representation: raises add the same deltas to the same logical
// variables in the same order. Value adds the values exactly and rounds
// once, so its bits depend on neither slot numbering nor order. Dense runs
// are thus bitwise equal to map-state runs (asserted by the engine's and
// the sequential algorithm's map replays and, for the index alone, by a
// map-backed oracle).
package dual

import "treesched/internal/model"

// Tolerance is the relative floating-point slack used in satisfaction and
// capacity comparisons throughout the library.
const Tolerance = 1e-9

// Index interns demand ids and edge keys to dense slots. It is built while
// preparing an item set (interning is not safe for concurrent use) and is
// read-only during runs, so one frozen Index may back any number of
// concurrent Assignments.
//
// Both sides keep first-seen numbering without hashing wherever the key
// space is dense: demand ids through a model.IDInterner, whose slots are
// the ids themselves on a cold build, and edge keys through a sized
// model.EdgeInterner's per-network tables. A side whose keys are sparse —
// a Session's demands once the first departure frees a slot, edge keys
// past the tables' budget, or an index sized for no path entries — converts
// to a map and keeps every slot. A released demand slot goes to the next
// new demand id; edge indices are never released.
type Index struct {
	demands model.IDInterner
	edges   model.EdgeInterner
}

// NewIndexSized returns an empty index with room for `demands` demand ids,
// whose edge tables may grow to the budget of pathEntries path entries (the
// total length of the index lists it will serve; see
// model.NewEdgeInternerSized).
func NewIndexSized(demands, pathEntries int) *Index {
	ix := new(Index)
	ix.Reset(demands, pathEntries)
	return ix
}

// Reset empties the index for reuse, sized as NewIndexSized(demands,
// pathEntries) sizes a new one, and keeps the storage of both sides.
func (ix *Index) Reset(demands, pathEntries int) {
	ix.demands.Reset(demands)
	ix.edges.Reset(pathEntries)
}

// Hashed reports whether either side of the index converted to a map, so
// its lookups hash.
func (ix *Index) Hashed() bool { return !ix.demands.Identity() || !ix.edges.Tabled() }

// Demand returns the dense slot of a demand id, interning it when new.
func (ix *Index) Demand(id int) int32 { return ix.demands.Intern(id) }

// DemandSlot returns the slot of a demand id without interning.
func (ix *Index) DemandSlot(id int) (int32, bool) { return ix.demands.Lookup(id) }

// DemandID returns the external demand id of a slot.
func (ix *Index) DemandID(slot int32) int { return ix.demands.ID(slot) }

// DemandIDs returns the demand ids in slot order: the interner's backing
// array, which a reused slot rewrites in place. Callers must not mutate
// it.
func (ix *Index) DemandIDs() []int { return ix.demands.IDs() }

// ReleaseDemand frees a demand slot for the next new demand id. The caller
// guarantees that no view still addresses it.
func (ix *Index) ReleaseDemand(slot int32) { ix.demands.Release(slot) }

// NumDemands returns the number of demand slots, freed ones included: the
// α extent.
func (ix *Index) NumDemands() int { return ix.demands.Len() }

// Edge returns the dense index of an edge key, interning it when new.
func (ix *Index) Edge(k model.EdgeKey) int32 { return ix.edges.Intern(k) }

// EdgePath interns the edge keys of one network's path, in order, writing
// their indices to idx (len(path) entries): Edge over each key, with the
// network's table looked up once.
func (ix *Index) EdgePath(path []model.EdgeKey, idx []int32) { ix.edges.InternPath(path, idx) }

// EdgeSlot returns the index of an edge key without interning.
func (ix *Index) EdgeSlot(k model.EdgeKey) (int32, bool) { return ix.edges.Lookup(k) }

// EdgeKey returns the external key of an edge index.
func (ix *Index) EdgeKey(i int32) model.EdgeKey { return ix.edges.Key(i) }

// NumEdges returns the number of interned edges.
func (ix *Index) NumEdges() int { return ix.edges.Len() }

// Assignment holds the dual variables as dense slices: α at every demand
// slot and β at every edge index of a complete numbering, all present
// from construction. NewWithIndex sizes it to an index that has interned
// the whole item set, so every slot a view of that set addresses is in
// range; an index that interns more afterwards (Prepared.Apply between
// runs) needs a new assignment for the next run, or Grow, which keeps the
// values. NewDense sizes it to a numbering of the caller's own. The zero
// value holds no slots until Reset sizes it.
type Assignment struct {
	ix    *Index
	alpha []float64
	beta  []float64
}

// NewWithIndex returns an assignment over ix with every α and β zero, one
// per slot the index has interned.
func NewWithIndex(ix *Index) *Assignment {
	a := new(Assignment)
	a.Reset(ix)
	return a
}

// Reset empties the assignment for reuse over ix, as NewWithIndex(ix)
// returns one — every α and β zero over the index's current extent — and
// keeps its storage.
func (a *Assignment) Reset(ix *Index) {
	a.ix = ix
	a.alpha = zeroed(a.alpha, ix.NumDemands())
	a.beta = zeroed(a.beta, ix.NumEdges())
}

// Grow extends the assignment to ix's current extent, keeping every α
// and β it holds, with the new slots zero: the one assignment a
// warm-start engine keeps across Applies, which intern more, grows this
// way. Storage grows as append grows it, with room for later growth.
func (a *Assignment) Grow(ix *Index) {
	a.ix = ix
	if n := ix.NumDemands(); n > len(a.alpha) {
		a.alpha = append(a.alpha, make([]float64, n-len(a.alpha))...)
	}
	if n := ix.NumEdges(); n > len(a.beta) {
		a.beta = append(a.beta, make([]float64, n-len(a.beta))...)
	}
}

// Zero sets α at every demand slot of slots and β at every edge index of
// edges to zero: a component of the warm-start engine clears its own
// entries of the assignment it shares with the other components before
// it runs again.
//
//schedvet:hot
func (a *Assignment) Zero(slots, edges []int32) {
	for _, s := range slots {
		a.alpha[s] = 0
	}
	for _, i := range edges {
		a.beta[i] = 0
	}
}

// zeroed returns s's storage at length n, all zero, or a new slice when s
// is nil or too short.
func zeroed(s []float64, n int) []float64 {
	if s == nil || cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewDense returns an assignment over pre-sized dense storage and no index:
// `demands` α slots and `edges` β slots, all zero. It serves callers that do
// their own slot addressing — a dist node keeps one node-local assignment
// over its node-local edge numbering, so a million-processor run carries no
// per-node interning maps at all, and the sequential Appendix-A
// algorithm addresses its own through a prepared layout. Having no index, it must not be read through AlphaMap or
// BetaMap.
func NewDense(demands, edges int) *Assignment {
	return &Assignment{alpha: make([]float64, demands), beta: make([]float64, edges)}
}

// StateBytes reports the resident bytes of the assignment's dense slices —
// the per-processor dual footprint the dist runtime accounts for.
func (a *Assignment) StateBytes() int64 {
	return int64(cap(a.alpha)+cap(a.beta)) * 8
}

// Alpha returns α at a demand slot.
func (a *Assignment) Alpha(slot int32) float64 { return a.alpha[slot] }

// Beta returns β at an edge index.
func (a *Assignment) Beta(i int32) float64 { return a.beta[i] }

// BetaSum returns Σ_{e on path} β(e) over interned edge indices.
//
//schedvet:hot
func (a *Assignment) BetaSum(path []int32) float64 {
	b := a.beta
	s := 0.0
	for _, i := range path {
		s += b[i]
	}
	return s
}

// LHS returns the left-hand side of the dual constraint of a demand
// instance: α(a_d) + coeff·Σ β(e). In the unit-height LP the coefficient is
// 1; in the arbitrary-height LP it is the instance height h(d).
//
//schedvet:hot
func (a *Assignment) LHS(slot int32, coeff float64, path []int32) float64 {
	return a.Alpha(slot) + coeff*a.BetaSum(path)
}

// Satisfied reports whether the instance's dual constraint is ξ-satisfied:
// LHS ≥ ξ·p(d), with relative tolerance.
//
//schedvet:hot
func (a *Assignment) Satisfied(slot int32, coeff float64, path []int32, xi, profit float64) bool {
	return Meets(a.LHS(slot, coeff, path), xi, profit)
}

// Meets is the one ξ-satisfaction verdict: a dual constraint whose
// left-hand side evaluates to lhs is ξ-satisfied for profit p when
// lhs ≥ ξ·p − Tolerance·p. Satisfied applies it to the LHS it computes;
// callers that already hold an LHS (the engine's compacted scan
// classifies one LHS against two thresholds) call it directly, so every
// satisfaction test in the library is this expression.
//
// For a positive profit the verdict is monotone in both arguments: IEEE
// round-to-nearest multiplication by p and subtraction of the same
// Tolerance·p are non-decreasing, so a larger lhs or a smaller ξ never
// turns true into false.
//
//schedvet:hot
func Meets(lhs, xi, profit float64) bool {
	return lhs >= xi*profit-Tolerance*profit
}

// RaiseUnit performs the unit-height raise of §3.2 on the instance with the
// given demand slot, path and critical edge set π: δ = s/(|π|+1), α += δ and
// β(e) += δ for e ∈ π. It returns δ. The constraint becomes tight.
//
//schedvet:hot
func (a *Assignment) RaiseUnit(slot int32, profit float64, path, critical []int32) float64 {
	s := profit - a.LHS(slot, 1, path)
	if s <= 0 {
		return 0
	}
	delta := s / float64(len(critical)+1)
	a.alpha[slot] += delta
	for _, i := range critical {
		a.beta[i] += delta
	}
	return delta
}

// RaiseNarrow performs the arbitrary-height raise of §6.1: with slackness
// s = p - (α + h·Σβ), δ = s/(1 + 2h|π|²), α += δ and β(e) += 2|π|δ for
// e ∈ π. It returns δ. The constraint becomes tight: the LHS gains
// δ + h·|π|·2|π|δ = s.
//
//schedvet:hot
func (a *Assignment) RaiseNarrow(slot int32, profit, height float64, path, critical []int32) float64 {
	s := profit - a.LHS(slot, height, path)
	if s <= 0 {
		return 0
	}
	k := float64(len(critical))
	delta := s / (1 + 2*height*k*k)
	a.alpha[slot] += delta
	for _, i := range critical {
		a.beta[i] += 2 * k * delta
	}
	return delta
}

// AddBeta adds g to β at every index of critical: the β-only replay of a
// raise announced by another processor, and the single-tree raise of
// Appendix A.
//
//schedvet:hot
func (a *Assignment) AddBeta(critical []int32, g float64) {
	for _, i := range critical {
		a.beta[i] += g
	}
}

// AlphaMap returns the nonzero α values keyed by demand id: the
// key-addressed view by which tests compare executions (raises only ever
// add nonzero values, so zero slots correspond to absent keys).
func (a *Assignment) AlphaMap() map[int]float64 {
	m := make(map[int]float64)
	for s, v := range a.alpha {
		if v != 0 {
			m[a.ix.DemandID(int32(s))] = v
		}
	}
	return m
}

// BetaMap returns the nonzero β values keyed by edge key.
func (a *Assignment) BetaMap() map[model.EdgeKey]float64 {
	m := make(map[model.EdgeKey]float64)
	for i, v := range a.beta {
		if v != 0 {
			m[a.ix.EdgeKey(int32(i))] = v
		}
	}
	return m
}

// Value returns the dual objective Σα + Σβ: the exact sum of the nonzero
// values, rounded once to nearest. So the bits depend on the multiset of
// values alone, not on slot numbering, order or grouping — the sharded
// engine keeps per-component partial sums (AddEntriesTo) and reproduces
// the serial run's Bound exactly. Every α and β is finite and
// non-negative, since raises only add non-negative amounts.
//
//schedvet:hot
func (a *Assignment) Value() float64 {
	var s Sum
	a.AddTo(&s)
	return s.Round()
}

// AddTo adds every nonzero α and β to s, exactly.
//
//schedvet:hot
func (a *Assignment) AddTo(s *Sum) {
	for _, side := range [2][]float64{a.alpha, a.beta} {
		for _, x := range side {
			if x != 0 {
				s.Add(x)
			}
		}
	}
}

// AddEntriesTo adds to s, exactly, every nonzero α at a demand slot of
// slots and β at an edge index of edges, each listed once: the partial
// sum of one component's entries of a shared assignment.
//
//schedvet:hot
func (a *Assignment) AddEntriesTo(s *Sum, slots, edges []int32) {
	for _, i := range slots {
		if x := a.alpha[i]; x != 0 {
			s.Add(x)
		}
	}
	for _, i := range edges {
		if x := a.beta[i]; x != 0 {
			s.Add(x)
		}
	}
}
