package treesched

import (
	"encoding/binary"
	"sync"

	"treesched/internal/decomp"
	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
)

// Solver is the reusable batch solving surface: it carries a fixed Options
// and caches the one part of preparation that recurs across the demand sets
// it sees — each network's layered decomposition (§4), which depends on the
// network's structure alone. Structurally identical networks share one
// entry, within an instance and across solves.
//
// Every solve is otherwise prepared from scratch: it validates the
// instance, computes each demand instance's LCA and walks its path once
// over the cached decompositions, and, when the algorithm resolves to
// DistributedUnit, interns the path into the dense layout in the same
// loop (engine.PrepareDemands; the other algorithms build the items
// alone) — linear in the total path length — and then runs the
// configured algorithm, the distributed ones on the serial engine at
// every Options.Parallelism. The serial engine reads no member lists, so a cold
// solve builds none. A Solve prepares in a pooled engine.Arena and returns
// it once the Result is built, so a cold solve allocates little beyond its
// Result. For churning demand sets on fixed networks, Session offers the
// incremental path: Update applies demand arrivals/departures as an engine
// delta instead of re-preparing.
//
// A Solver is safe for concurrent use; each Solve call runs independently,
// in an arena of its own, and only the decomposition cache is shared. The
// cache holds a bounded number of entries with LRU eviction — overflow
// drops only the least-recently used entry, so hot networks survive any
// burst of one-off ones.
type Solver struct {
	opts Options

	mu      sync.Mutex
	layouts *lru[*decomp.Layered]
}

// maxCachedLayouts bounds the Solver's decomposition cache (distinct
// network structures, each O(vertices) to hold).
const maxCachedLayouts = 1024

// NewSolver returns a Solver with the given options (normalized: ε defaults
// to 0.1, Parallelism below 1 becomes runtime.GOMAXPROCS(0)) and an empty
// decomposition cache.
func NewSolver(opts Options) *Solver {
	opts.normalize()
	return &Solver{opts: opts, layouts: newLRU[*decomp.Layered](maxCachedLayouts)}
}

// Options returns the solver's normalized options.
func (s *Solver) Options() Options { return s.opts }

// CachedLayouts reports how many per-tree decompositions are cached.
func (s *Solver) CachedLayouts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layouts.len()
}

// CacheCounters is one solver cache's size and lifetime hit/miss counts.
type CacheCounters struct {
	Len    int
	Hits   uint64
	Misses uint64
}

// CacheStats reports the Solver's decomposition cache. Every solve looks
// up each of its networks once, so Layouts.Hits+Layouts.Misses counts the
// networks solved and Layouts.Len the distinct structures held; a miss
// decomposes the network. Prepared and Arbitrary always read zero: the
// Solver caches no prepared instances, since whole instances did not recur
// across solves.
type CacheStats struct {
	Layouts   CacheCounters
	Prepared  CacheCounters
	Arbitrary CacheCounters
}

// CacheStats snapshots the solver's cache counters.
func (s *Solver) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Layouts: s.layouts.counters()}
}

// Solve runs the configured algorithm on a tree-network instance, reusing
// cached layered decompositions for networks decomposed before. The
// package-level Solve is NewSolver(opts).Solve(in), so results are
// identical to it with the same options.
//
// The solve's demand copy, tree keys, items and engine preparation live in
// an arena taken for the call. It goes back to the pool only on return,
// after the Result and its fresh Assignments are built, since the
// assignments are read off the arena's items. When the algorithm resolves
// to DistributedUnit, the items are prepared as they are built
// (engine.PrepareDemands); the other algorithms build them alone.
func (s *Solver) Solve(in *Instance) (*Result, error) {
	a := engine.TakeArena()
	defer a.Release()
	m, err := in.build(a.Demands)
	if err != nil {
		return nil, err
	}
	a.Demands = m.Demands
	if err := s.opts.checkSimulate(); err != nil {
		return nil, err
	}
	if s.opts.Algorithm == SequentialTree {
		return solveSequential(m)
	}
	rec := s.opts.Recorder
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(engine.PhasePrepare)
	}
	layered, err := s.layeredFor(m, &a.Key)
	if err != nil {
		return nil, err
	}
	unit := unitDemands(m.Demands) // in.build validated m
	if s.opts.resolve(unit) == DistributedUnit {
		if rec != nil {
			rec.EndSpan(engine.PhasePrepare, tok)
		}
		p := engine.PrepareDemands(m.Demands, layered, rec, a)
		return solveTreeItems(p.Items(), p, s.opts, unit)
	}
	items := engine.DemandItems(m.Demands, layered, a)
	if rec != nil {
		rec.EndSpan(engine.PhasePrepare, tok)
	}
	return solveTreeItems(items, nil, s.opts, unit)
}

// layeredFor returns the cached layered decomposition of every tree,
// building each tree's cache key in *key.
func (s *Solver) layeredFor(m *model.Instance, key *[]byte) ([]*decomp.Layered, error) {
	layered := make([]*decomp.Layered, len(m.Trees))
	for q, t := range m.Trees {
		*key = appendTreeKey((*key)[:0], t)
		l, err := s.layout(t, *key)
		if err != nil {
			return nil, err
		}
		layered[q] = l
	}
	return layered, nil
}

// layout returns the layered decomposition of t, whose tree key is key,
// under the solver's decomposition kind, from cache when the same network
// structure was decomposed before. Two racing builders of one structure do
// redundant work but converge on one cached value.
func (s *Solver) layout(t *graph.Tree, key []byte) (*decomp.Layered, error) {
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
	s.layouts.put(string(key), l)
	s.mu.Unlock()
	return l, nil
}

// appendTreeKey appends to b the decomposition cache's exact key for t: its
// vertex count, then the parent of every vertex but the root, as varints.
// That is the tree's whole structure, since edge ids and every
// decomposition are functions of it, and the encoding decodes uniquely, so
// distinct structures never share a key. The key omits the decomposition
// kind, which is fixed for a Solver.
func appendTreeKey(b []byte, t *graph.Tree) []byte {
	b = binary.AppendVarint(b, int64(t.N()))
	for v := 1; v < t.N(); v++ {
		b = binary.AppendVarint(b, int64(t.Parent(v)))
	}
	return b
}
