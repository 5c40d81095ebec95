package treesched

import (
	"encoding/binary"
	"math"
	"strings"
	"sync"

	"treesched/internal/decomp"
	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
)

// Solver is the reusable batch solving surface: it carries a fixed Options
// and caches the expensive Config-independent preparation work, keyed by
// instance content:
//
//   - per-tree layered decompositions, keyed by network structure, reused
//     whenever the same networks reappear under any demand set;
//   - fully prepared item sets (engine.Prepared: interned dense dual
//     indices, per-item views, the demand and edge member lists that
//     encode the §2 conflict graph), keyed by the complete instance
//     content, so repeated solves on the same item set skip item building
//     and interning entirely and go straight into the schedule, which a
//     cold solve runs on the serial engine at every Options.Parallelism;
//   - arbitrary-height preparations (engine.ArbitraryPrepared: the §6
//     wide/narrow split with each height class prepared), keyed the same
//     way, so DistributedArbitrary re-solves skip preparation for both
//     classes too.
//
// A cold solve validates the instance, encodes its content key, walks each
// demand instance's path once to build its item, interns the items into
// the dense layout and groups them into member lists — each pass linear in
// the total path length — decomposes any network not seen before, and then
// runs the schedule. Repeated solves over identical instances — the steady
// state of a scheduling service re-solving as schedules are re-evaluated —
// pay only validation, the content key and the schedule. For churning
// demand sets on fixed networks, Session offers the incremental path:
// Update applies demand arrivals/departures as an engine delta instead of
// re-preparing.
//
// A Solver is safe for concurrent use; each Solve call runs independently
// and only the caches are shared (a cached preparation is immutable and
// supports concurrent runs). Each cache holds a bounded number of entries
// with LRU eviction — overflow drops only the least-recently used entry, so
// hot steady-state keys survive any burst of one-off instances.
type Solver struct {
	opts Options

	mu        sync.Mutex
	layouts   *lru[*decomp.Layered]
	prepared  *lru[*engine.Prepared]
	arbitrary *lru[*engine.ArbitraryPrepared]
}

// maxCachedLayouts bounds the Solver's decomposition cache (distinct
// network structures, each O(vertices) to hold).
const maxCachedLayouts = 1024

// maxCachedPrepared bounds the Solver's prepared-instance caches. A
// Prepared entry holds its items (paths and critical sets in two arenas),
// views (index lists in one slab), member lists and dual index (per-network
// edge tables of at most two int32 cells per path entry, no maps on a cold
// build) — linear in the instance's total path length, but far larger than
// one network's decomposition — so the bound is tighter than the
// decomposition cache's.
const maxCachedPrepared = 128

// NewSolver returns a Solver with the given options (normalized: ε defaults
// to 0.1, Parallelism below 1 becomes runtime.GOMAXPROCS(0)).
func NewSolver(opts Options) *Solver {
	opts.normalize()
	return &Solver{
		opts:      opts,
		layouts:   newLRU[*decomp.Layered](maxCachedLayouts),
		prepared:  newLRU[*engine.Prepared](maxCachedPrepared),
		arbitrary: newLRU[*engine.ArbitraryPrepared](maxCachedPrepared),
	}
}

// Options returns the solver's normalized options.
func (s *Solver) Options() Options { return s.opts }

// CachedLayouts reports how many per-tree decompositions are cached.
func (s *Solver) CachedLayouts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layouts.len()
}

// CachedPrepared reports how many prepared unit-pipeline instances are
// cached.
func (s *Solver) CachedPrepared() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepared.len()
}

// CachedArbitrary reports how many prepared arbitrary-height instances are
// cached.
func (s *Solver) CachedArbitrary() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arbitrary.len()
}

// CacheCounters is one solver cache's size and lifetime hit/miss counts.
type CacheCounters struct {
	Len    int
	Hits   uint64
	Misses uint64
}

// CacheStats reports the effectiveness of the Solver's three preparation
// caches. A steady-state service should see the Prepared/Arbitrary hit
// counts track its solve count; a rising miss rate means instances are
// churning content (or overflowing the LRU bounds) and every such solve
// pays full preparation — the first place to look when warm-path latency
// regresses without an algorithmic change.
type CacheStats struct {
	Layouts   CacheCounters
	Prepared  CacheCounters
	Arbitrary CacheCounters
}

// CacheStats snapshots the solver's cache counters.
func (s *Solver) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Layouts:   s.layouts.counters(),
		Prepared:  s.prepared.counters(),
		Arbitrary: s.arbitrary.counters(),
	}
}

// Solve runs the configured algorithm on a tree-network instance, reusing
// cached layered decompositions and prepared item sets for instances solved
// before. Results are identical to the package-level Solve with the same
// options — caching changes how fast the answer arrives, never the answer.
func (s *Solver) Solve(in *Instance) (*Result, error) {
	m, err := in.build()
	if err != nil {
		return nil, err
	}
	if s.opts.Algorithm == SequentialTree {
		return solveSequential(m)
	}
	// The prepared fast paths cover the in-process pipeline solves (no
	// Simulate): the cached engine.Prepared / engine.ArbitraryPrepared
	// replaces item building and conflict construction. The other
	// algorithms either run a different engine (exact) or measure
	// communication (Simulate), and take the uncached path below — still
	// with cached decompositions.
	if !s.opts.Simulate {
		switch s.resolveFast(m) {
		case DistributedUnit:
			p, err := s.prepare(m)
			if err != nil {
				return nil, err
			}
			return s.unitResultFromPrepared(p)
		case DistributedArbitrary:
			ap, err := s.prepareArbitrary(m)
			if err != nil {
				return nil, err
			}
			return s.arbitraryResultFromPrepared(ap)
		}
	}

	_, treeKeys := instanceSignature(m, s.opts.Decomposition)
	items, err := s.buildItems(m, treeKeys)
	if err != nil {
		return nil, err
	}
	return solveTreeItems(items, s.opts)
}

// resolveFast resolves Auto against the instance's heights and reports
// which prepared fast path applies (0 when none does).
func (s *Solver) resolveFast(m *model.Instance) Algorithm {
	switch s.opts.Algorithm {
	case DistributedUnit, DistributedArbitrary:
		return s.opts.Algorithm
	case Auto:
		for _, d := range m.Demands {
			if d.Height < 1 {
				return DistributedArbitrary
			}
		}
		return DistributedUnit
	default:
		return 0
	}
}

// unitResultFromPrepared runs the unit-height pipeline over prepared state
// and assembles the public Result. Shared by the Solve fast path and
// Session.Solve.
func (s *Solver) unitResultFromPrepared(p *engine.Prepared) (*Result, error) {
	res, err := p.RunParallel(engine.Config{
		Mode:        engine.Unit,
		Epsilon:     s.opts.Epsilon,
		Seed:        s.opts.Seed,
		SingleStage: s.opts.SingleStage,
	}, s.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	items := p.Items()
	out := &Result{
		Profit:      res.Profit,
		DualBound:   res.Bound,
		Guarantee:   float64(res.Delta+1) * s.opts.slackFactor(),
		Assignments: make([]Assignment, 0, len(res.Selected)),
	}
	for _, id := range res.Selected {
		out.Assignments = append(out.Assignments, Assignment{
			Demand:  items[id].Demand,
			Network: items[id].Resource,
		})
	}
	return out, nil
}

// arbitraryResultFromPrepared runs the §6 wide/narrow combination over
// prepared state and assembles the public Result.
func (s *Solver) arbitraryResultFromPrepared(ap *engine.ArbitraryPrepared) (*Result, error) {
	res, err := ap.RunParallel(engine.Config{
		Epsilon:     s.opts.Epsilon,
		Seed:        s.opts.Seed,
		SingleStage: s.opts.SingleStage,
	}, s.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	delta := ap.MaxCritical()
	items := ap.Items()
	out := &Result{
		Profit:    res.Profit,
		DualBound: res.Bound,
		Guarantee: float64((delta+1)+(2*delta*delta+1)) * s.opts.slackFactor(),
	}
	for _, id := range res.Selected {
		out.Assignments = append(out.Assignments, Assignment{
			Demand:  items[id].Demand,
			Network: items[id].Resource,
		})
	}
	return out, nil
}

// buildItems expands the instance into framework items over cached per-tree
// decompositions; treeKeys[q] is tree q's key from instanceSignature.
func (s *Solver) buildItems(m *model.Instance, treeKeys []string) ([]engine.Item, error) {
	layered, err := s.layeredFor(m, treeKeys)
	if err != nil {
		return nil, err
	}
	return engine.BuildTreeItemsLayered(m, layered)
}

// layeredFor returns the cached layered decomposition of every tree.
func (s *Solver) layeredFor(m *model.Instance, treeKeys []string) ([]*decomp.Layered, error) {
	layered := make([]*decomp.Layered, len(m.Trees))
	for q, t := range m.Trees {
		l, err := s.layout(t, treeKeys[q])
		if err != nil {
			return nil, err
		}
		layered[q] = l
	}
	return layered, nil
}

// prepare returns the instance's prepared item set, building (and caching)
// it on first sight. Two racing builders of the same key do redundant work
// but converge on one cached value.
func (s *Solver) prepare(m *model.Instance) (*engine.Prepared, error) {
	key, treeKeys := instanceSignature(m, s.opts.Decomposition)
	s.mu.Lock()
	p, ok := s.prepared.get(key)
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	rec := s.opts.Recorder
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(engine.PhasePrepare)
	}
	items, err := s.buildItems(m, treeKeys)
	if err != nil {
		return nil, err
	}
	p = engine.Prepare(items)
	p.SetRecorder(rec) // before publishing: SetRecorder must not overlap a run
	if rec != nil {
		rec.EndSpan(engine.PhasePrepare, tok)
	}
	s.mu.Lock()
	s.prepared.put(key, p)
	s.mu.Unlock()
	return p, nil
}

// prepareArbitrary is prepare for the §6 wide/narrow pipeline.
func (s *Solver) prepareArbitrary(m *model.Instance) (*engine.ArbitraryPrepared, error) {
	key, treeKeys := instanceSignature(m, s.opts.Decomposition)
	s.mu.Lock()
	ap, ok := s.arbitrary.get(key)
	s.mu.Unlock()
	if ok {
		return ap, nil
	}
	rec := s.opts.Recorder
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(engine.PhasePrepare)
	}
	items, err := s.buildItems(m, treeKeys)
	if err != nil {
		return nil, err
	}
	ap = engine.PrepareArbitrary(items)
	ap.SetRecorder(rec)
	if rec != nil {
		rec.EndSpan(engine.PhasePrepare, tok)
	}
	s.mu.Lock()
	s.arbitrary.put(key, ap)
	s.mu.Unlock()
	return ap, nil
}

// layout returns the layered decomposition of t under the solver's
// decomposition kind, from cache when the same network structure was
// decomposed before. key is t's key from instanceSignature.
func (s *Solver) layout(t *graph.Tree, key string) (*decomp.Layered, error) {
	s.mu.Lock()
	l, ok := s.layouts.get(key)
	s.mu.Unlock()
	if ok {
		return l, nil
	}
	l, err := engine.LayeredForTree(t, s.opts.Decomposition)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.layouts.put(strings.Clone(key), l) // key is a substring of an instance key
	s.mu.Unlock()
	return l, nil
}

// instanceSignature is an exact content key for a full instance under a
// decomposition kind, plus each tree's key as a substring of it. Items (and
// hence the conflict structure, the dense layout, and every solve over
// them) are a pure function of this content, so equal keys may safely
// share one prepared value.
//
// The key is one binary encoding: the kind, the vertex count, each tree,
// then each demand's endpoints, profit and height bits, and accessibility
// list. A tree encodes as its vertex count and then the parent of every
// vertex but the root; that is its whole structure, since edge ids and
// every decomposition are functions of it. Every field is a varint or
// fixed-width and every list is preceded by its length, so the encoding
// decodes uniquely and distinct contents never share a key. A tree's key
// omits the kind, which is fixed for a Solver and hence for its
// decomposition cache.
func instanceSignature(m *model.Instance, kind engine.DecompKind) (key string, treeKeys []string) {
	size := 16
	for _, t := range m.Trees {
		size += 2 * t.N()
	}
	for i := range m.Demands {
		size += 24 + len(m.Demands[i].Access)
	}
	b := make([]byte, 0, size)
	b = binary.AppendVarint(b, int64(kind))
	b = binary.AppendVarint(b, int64(m.NumVertices))
	b = binary.AppendVarint(b, int64(len(m.Trees)))
	spans := make([]int, len(m.Trees)+1)
	for q, t := range m.Trees {
		spans[q] = len(b)
		b = binary.AppendVarint(b, int64(t.N()))
		for v := 1; v < t.N(); v++ {
			b = binary.AppendVarint(b, int64(t.Parent(v)))
		}
	}
	spans[len(m.Trees)] = len(b)
	b = binary.AppendVarint(b, int64(len(m.Demands)))
	for i := range m.Demands {
		d := &m.Demands[i]
		b = binary.AppendVarint(b, int64(d.U))
		b = binary.AppendVarint(b, int64(d.V))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Profit))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Height))
		b = binary.AppendVarint(b, int64(len(d.Access)))
		for _, q := range d.Access {
			b = binary.AppendVarint(b, int64(q))
		}
	}
	key = string(b)
	treeKeys = make([]string, len(m.Trees))
	for q := range treeKeys {
		treeKeys[q] = key[spans[q]:spans[q+1]]
	}
	return key, treeKeys
}
