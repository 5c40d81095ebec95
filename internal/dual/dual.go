// Package dual maintains the dual assignment of the paper's LP (§3.1, §6.1):
// a value α(a) per demand and β(e) per edge. It implements the raise rules
// of the two-phase framework for both the unit-height case (§3.2) and the
// narrow-instance case (§6.1), ξ-satisfaction tests, and the weak-duality
// upper bound obtained by scaling an approximately-feasible assignment.
//
// # Dense indexed state
//
// The inner loop of the framework tests ξ-satisfaction —
// α(a) + h·Σ_{e∈path} β(e) ≥ ξ·p(d) — for every item that can still be
// unsatisfied, and the map-backed representation paid an EdgeKey hash per
// path edge on every test (BetaSum was a top profile entry). Meets is the
// one comparison every such test applies. The raise rules only ever add
// non-negative amounts, so no computed LHS falls and Meets, monotone in
// its LHS and its threshold, never revokes a verdict; the engine relies on
// that to re-test only the items still unsatisfied. The assignment keeps
// α and β in dense []float64 slices addressed through an Index that interns
// demand ids and EdgeKeys to contiguous int32 slots once per item set —
// without hashing where the key space is dense (identity demand slots,
// per-network edge tables); the hot-path methods (BetaSum, LHS, Satisfied,
// RaiseUnit, RaiseNarrow, AddBeta) take precomputed index lists and run as
// tight loops over int32 slices. Key-addressed variants (the ...Keys
// methods) and the AlphaMap/BetaMap views remain for cold callers — the
// sequential Appendix-A algorithm, the verify package, and tests.
//
// The arithmetic is operation-for-operation identical to the map-backed
// representation: raises add the same deltas to the same logical variables
// in the same order. Value adds the values exactly and rounds once, so its
// bits depend on neither slot numbering nor order. Dense runs are thus
// bitwise equal to map-state runs (asserted by the engine's shadow-replay
// determinism test and, for the index alone, by a map-backed oracle).
package dual

import (
	"math"
	"slices"

	"treesched/internal/model"
)

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
// past the tables' budget, or an unsized index's edges — converts to a map
// and keeps every slot. A released demand slot goes to the next new
// demand id; edge indices are never released.
type Index struct {
	demands model.IDInterner
	edges   *model.EdgeInterner
}

// NewIndex returns an empty, unsized index. Its edge side keeps a map from
// the start (see model.EdgeInterner); it serves cold callers such as the
// sequential Appendix-A algorithm and tests.
func NewIndex() *Index { return NewIndexSized(0, 0) }

// NewIndexSized returns an empty index with room for `demands` demand ids,
// whose edge tables may grow to the budget of pathEntries path entries (the
// total length of the index lists it will serve; see
// model.NewEdgeInternerSized).
func NewIndexSized(demands, pathEntries int) *Index {
	return &Index{
		demands: model.NewIDInterner(demands),
		edges:   model.NewEdgeInternerSized(pathEntries),
	}
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

// Path interns every key of path and returns the aligned index list.
func (ix *Index) Path(path []model.EdgeKey) []int32 { return ix.edges.InternPath(path) }

// EdgeSlot returns the index of an edge key without interning.
func (ix *Index) EdgeSlot(k model.EdgeKey) (int32, bool) { return ix.edges.Lookup(k) }

// EdgeKey returns the external key of an edge index.
func (ix *Index) EdgeKey(i int32) model.EdgeKey { return ix.edges.Key(i) }

// NumEdges returns the number of interned edges.
func (ix *Index) NumEdges() int { return ix.edges.Len() }

// Assignment holds the dual variables as dense slices addressed through its
// Index. The zero value is not usable; construct with New or NewWithIndex.
// Slices grow lazily: a slot beyond the current length holds an implicit
// zero, and every write path grows its slice first, so assignments over a
// still-growing index (the dist nodes intern remote edges during setup)
// stay correct.
type Assignment struct {
	ix    *Index
	alpha []float64
	beta  []float64
}

// New returns an empty assignment over a fresh private index (all dual
// variables implicitly zero).
func New() *Assignment { return NewWithIndex(NewIndex()) }

// NewWithIndex returns an empty assignment over ix, pre-sized to the index's
// current extent.
func NewWithIndex(ix *Index) *Assignment {
	return &Assignment{
		ix:    ix,
		alpha: make([]float64, ix.NumDemands()),
		beta:  make([]float64, ix.NumEdges()),
	}
}

// NewDense returns an assignment over pre-sized dense storage and no index:
// `demands` α slots and `edges` β slots, all zero. It serves callers that do
// their own slot addressing — a dist node keeps one node-local assignment
// over its node-local edge numbering, so a million-processor run carries no
// per-node interning maps at all. Such an assignment supports exactly the
// index-free hot-path methods (Alpha, Beta, BetaSum, LHS, Satisfied,
// RaiseUnit, RaiseNarrow, AddBeta, StateBytes, Value); the key-addressed
// layer needs an index and must not be called on it.
func NewDense(demands, edges int) *Assignment {
	return &Assignment{alpha: make([]float64, demands), beta: make([]float64, edges)}
}

// Index returns the assignment's index.
func (a *Assignment) Index() *Index { return a.ix }

// StateBytes reports the resident bytes of the assignment's dense slices —
// the per-processor dual footprint the dist runtime accounts for.
func (a *Assignment) StateBytes() int64 {
	return int64(cap(a.alpha)+cap(a.beta)) * 8
}

// Alpha returns α at a demand slot.
func (a *Assignment) Alpha(slot int32) float64 {
	if int(slot) < len(a.alpha) {
		return a.alpha[slot]
	}
	return 0
}

// Beta returns β at an edge index.
func (a *Assignment) Beta(i int32) float64 {
	if int(i) < len(a.beta) {
		return a.beta[i]
	}
	return 0
}

// BetaSum returns Σ_{e on path} β(e) over interned edge indices.
//
//schedvet:hot
func (a *Assignment) BetaSum(path []int32) float64 {
	b := a.beta
	s := 0.0
	for _, i := range path {
		if int(i) < len(b) {
			s += b[i]
		}
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
// lhs ≥ ξ·p − Tolerance·p. Satisfied and SatisfiedKeys apply it to the
// LHS they compute; callers that already hold an LHS (the engine's
// compacted scan classifies one LHS against two thresholds) call it
// directly, so every satisfaction test in the library is this expression.
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

// growAlpha ensures the α slice covers slot.
func (a *Assignment) growAlpha(slot int32) {
	if int(slot) >= len(a.alpha) {
		a.alpha = append(a.alpha, make([]float64, int(slot)+1-len(a.alpha))...)
	}
}

// growBeta ensures the β slice covers every index in idxs.
func (a *Assignment) growBeta(idxs []int32) {
	hi := int32(-1)
	for _, i := range idxs {
		if i > hi {
			hi = i
		}
	}
	if int(hi) >= len(a.beta) {
		a.beta = append(a.beta, make([]float64, int(hi)+1-len(a.beta))...)
	}
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
	a.growAlpha(slot)
	a.alpha[slot] += delta
	a.growBeta(critical)
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
	a.growAlpha(slot)
	a.alpha[slot] += delta
	a.growBeta(critical)
	for _, i := range critical {
		a.beta[i] += 2 * k * delta
	}
	return delta
}

// AddBeta adds g to β at every index of critical: the β-only replay of a
// raise announced by another processor.
//
//schedvet:hot
func (a *Assignment) AddBeta(critical []int32, g float64) {
	a.growBeta(critical)
	for _, i := range critical {
		a.beta[i] += g
	}
}

// --- key-addressed compatibility layer (cold paths) ----------------------

// AlphaOf returns α of a demand id.
func (a *Assignment) AlphaOf(demand int) float64 {
	if s, ok := a.ix.DemandSlot(demand); ok {
		return a.Alpha(s)
	}
	return 0
}

// BetaOf returns β of an edge key.
func (a *Assignment) BetaOf(k model.EdgeKey) float64 {
	if i, ok := a.ix.EdgeSlot(k); ok {
		return a.Beta(i)
	}
	return 0
}

// AddAlphaOf adds v to α of a demand id, interning it when new.
func (a *Assignment) AddAlphaOf(demand int, v float64) {
	s := a.ix.Demand(demand)
	a.growAlpha(s)
	a.alpha[s] += v
}

// AddBetaOf adds v to β of an edge key, interning it when new.
func (a *Assignment) AddBetaOf(k model.EdgeKey, v float64) {
	i := a.ix.Edge(k)
	a.growBeta([]int32{i})
	a.beta[i] += v
}

// MergeSlots adds src's α/β into a through precomputed slot translations:
// slotMap[s] (resp. edgeMap[i]) is the slot in a's index holding the same
// external demand (edge) as src's slot s (index i). The sharded engine
// assembles its global dual this way, on request: each component's tables
// are built when it is relabeled and name the same keys until the next
// Apply, which may give a departed demand's slot to an arrival, replacing
// the per-entry key lookups of AddAlphaOf/AddBetaOf.
func (a *Assignment) MergeSlots(src *Assignment, slotMap, edgeMap []int32) {
	for s, v := range src.alpha {
		if v != 0 {
			t := slotMap[s]
			a.growAlpha(t)
			a.alpha[t] += v
		}
	}
	for i, v := range src.beta {
		if v != 0 {
			t := edgeMap[i]
			if int(t) >= len(a.beta) {
				a.beta = append(a.beta, make([]float64, int(t)+1-len(a.beta))...)
			}
			a.beta[t] += v
		}
	}
}

// BetaSumKeys is BetaSum over edge keys.
func (a *Assignment) BetaSumKeys(path []model.EdgeKey) float64 {
	s := 0.0
	for _, k := range path {
		s += a.BetaOf(k)
	}
	return s
}

// LHSKeys is LHS over a demand id and edge keys.
func (a *Assignment) LHSKeys(demand int, coeff float64, path []model.EdgeKey) float64 {
	return a.AlphaOf(demand) + coeff*a.BetaSumKeys(path)
}

// SatisfiedKeys is Satisfied over a demand id and edge keys.
func (a *Assignment) SatisfiedKeys(demand int, coeff float64, path []model.EdgeKey, xi, profit float64) bool {
	return Meets(a.LHSKeys(demand, coeff, path), xi, profit)
}

// RaiseUnitKeys is RaiseUnit over a demand id and edge keys, interning them
// when new.
func (a *Assignment) RaiseUnitKeys(demand int, profit float64, path, critical []model.EdgeKey) float64 {
	return a.RaiseUnit(a.ix.Demand(demand), profit, a.ix.Path(path), a.ix.Path(critical))
}

// RaiseNarrowKeys is RaiseNarrow over a demand id and edge keys, interning
// them when new.
func (a *Assignment) RaiseNarrowKeys(demand int, profit, height float64, path, critical []model.EdgeKey) float64 {
	return a.RaiseNarrow(a.ix.Demand(demand), profit, height, a.ix.Path(path), a.ix.Path(critical))
}

// AlphaMap returns the nonzero α values keyed by demand id — the map view
// the pre-dense representation stored directly (raises only ever insert
// nonzero values, so zero slots correspond to absent keys).
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
// engine merges per-component partial sums (AddTo) and reproduces the
// serial run's Bound exactly. Every α and β is finite and non-negative,
// since raises and merges only add non-negative amounts.
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

// ConstraintView describes one dual constraint for Lambda/Bound computation.
type ConstraintView struct {
	Demand int
	Coeff  float64 // 1 for the unit LP, h(d) for the height LP
	Profit float64
	Path   []model.EdgeKey
}

// Lambda returns the measured slackness parameter: the largest λ such that
// every constraint is λ-satisfied, i.e. min over constraints of LHS/p,
// capped at 1. Constraints with p(d) ≤ 0 carry no profit to certify against
// and are skipped — dividing by them would poison the minimum with NaN/±Inf.
// Returns 0 for an empty (or entirely profitless) constraint set.
func (a *Assignment) Lambda(constraints []ConstraintView) float64 {
	lambda := 0.0
	seen := false
	for _, c := range constraints {
		if !(c.Profit > 0) {
			continue
		}
		r := a.LHSKeys(c.Demand, c.Coeff, c.Path) / c.Profit
		if !seen || r < lambda {
			lambda = r
			seen = true
		}
	}
	if !seen {
		return 0
	}
	return math.Min(lambda, 1)
}

// Bound returns the weak-duality upper bound on the optimum: scaling the
// assignment by 1/λ yields a feasible dual, so Opt ≤ Value/λ (proof of
// Lemma 3.1). Returns +Inf if λ ≤ 0.
func (a *Assignment) Bound(constraints []ConstraintView) float64 {
	lambda := a.Lambda(constraints)
	if lambda <= 0 {
		return math.Inf(1)
	}
	return a.Value() / lambda
}

// Clone returns a deep copy of the assignment sharing the (read-only) index.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{ix: a.ix, alpha: slices.Clone(a.alpha), beta: slices.Clone(a.beta)}
}
