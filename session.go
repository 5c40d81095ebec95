package treesched

import (
	"fmt"
	"slices"
	"sync"

	"treesched/internal/decomp"
	"treesched/internal/engine"
	"treesched/internal/model"
)

// Session is the incremental re-solve surface: a Solver pinned to one
// evolving instance whose networks are fixed while demands arrive and
// depart. Where Solver.Solve re-prepares (or cache-hits) a complete
// instance, Session.Update applies the churn as an engine delta — only the
// conflict rows, layout slots and shard components the arrivals and
// departures actually touch are rebuilt — and Session.Solve runs the
// pipeline over the incrementally maintained state. Solve results are
// bitwise identical to preparing the session's current item set from
// scratch (the engine's incremental-state suite asserts this), so
// incrementality changes how fast the answer arrives, never the answer.
//
// Sessions cover the in-process unit-height pipeline: Options.Algorithm
// must be DistributedUnit, or Auto with every demand at height 1 (Auto
// resolves by heights, so a sub-unit arrival would silently switch
// algorithms mid-session; pin DistributedUnit to schedule sub-unit heights
// edge-disjointly). Simulate is not supported.
//
// A Session is safe for concurrent use, but callers that interleave Update
// and Solve from multiple goroutines get an unspecified (valid) ordering.
type Session struct {
	solver  *Solver
	mu      sync.Mutex
	layered []*decomp.Layered // per network; len is the network count
	nv      int               // vertex count
	p       *engine.Prepared
	live    map[int]bool // demand id -> currently present
	next    int          // next demand id to assign
	// arrived counts the items interned since the last full preparation.
	// Departed demands leave stale interned slots behind (see delta.go), so
	// a session churning forever would accrete layout state proportional to
	// its history; once the accretion passes a multiple of the live set,
	// Update re-prepares from the current items — amortized O(1) rebuilds
	// per O(live) churn — and the session's footprint stays proportional to
	// the live set, not the total churn.
	arrived int
	// Observability counters behind Stats; all guarded by mu.
	updates     int
	solves      int
	reprepares  int
	lastRemoved int
	lastAdded   int
	// warmBase accumulates the warm-start counters of Prepared values the
	// session has retired (compaction re-prepares start a fresh Prepared with
	// zeroed counters); Stats adds the live Prepared's counters on top.
	warmBase engine.WarmStats
}

// SessionStats is a snapshot of a session's incremental-state health, for
// operators and the serve layer: how large the live set is, how much stale
// interned layout state has accreted since the last full preparation, how
// often the compaction threshold forced a re-prepare, and how big the last
// applied delta was.
type SessionStats struct {
	// Live is the number of live demands; Items counts their demand
	// instances (one per accessible network), the unit the engine works in.
	Live  int
	Items int
	// Updates and Solves count successful calls since the session was
	// created. Failed updates change no state and are not counted.
	Updates int
	Solves  int
	// Accreted is the number of items interned since the last full
	// preparation — the stale-slot growth the compaction threshold watches.
	// Reprepares counts the compactions triggered so far; each resets
	// Accreted to zero.
	Accreted   int
	Reprepares int
	// LastRemoved / LastAdded are the item delta sizes of the most recent
	// successful Update (zero before the first).
	LastRemoved int
	LastAdded   int
	// Warm-start accounting (always zero with Options.DisableWarmStart):
	// WarmSolves counts solves that replayed at least one cached component,
	// ColdSolves the rest, so WarmSolves+ColdSolves == Solves. Components-
	// Replayed/ComponentsResolved break sharded solves down by component:
	// replayed from the warm cache versus re-run through the schedule.
	WarmSolves         int
	ColdSolves         int
	ComponentsReplayed int
	ComponentsResolved int
}

// Stats reports the session's current incremental-state counters.
func (sess *Session) Stats() SessionStats {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	w := sess.p.WarmStats()
	return SessionStats{
		Live:               len(sess.live),
		Items:              len(sess.p.Items()),
		Updates:            sess.updates,
		Solves:             sess.solves,
		Accreted:           sess.arrived,
		Reprepares:         sess.reprepares,
		LastRemoved:        sess.lastRemoved,
		LastAdded:          sess.lastAdded,
		WarmSolves:         sess.warmBase.WarmSolves + w.WarmSolves,
		ColdSolves:         sess.warmBase.ColdSolves + w.ColdSolves,
		ComponentsReplayed: sess.warmBase.ComponentsReplayed + w.ComponentsReplayed,
		ComponentsResolved: sess.warmBase.ComponentsResolved + w.ComponentsResolved,
	}
}

// NewDemand describes one arriving demand for Session.Update.
type NewDemand struct {
	U, V   int
	Profit float64
	// Height is the bandwidth requirement in (0, 1]; 0 means 1. Sub-unit
	// heights require the session's Options.Algorithm to be DistributedUnit.
	Height float64
	// Access restricts the demand to the given networks; empty means all.
	Access []int
}

// Churn is one round of demand departures and arrivals.
type Churn struct {
	Remove []int // demand ids: the instance's original ids or Update's returns
	Add    []NewDemand
}

// Session pins the solver to the given instance for incremental re-solving.
// The instance is prepared once (through the solver's decomposition cache);
// subsequent Update calls mutate the session's private prepared state and
// never touch the solver's cross-solve caches.
func (s *Solver) Session(in *Instance) (*Session, error) {
	if s.opts.Simulate {
		return nil, fmt.Errorf("treesched: sessions do not support Simulate")
	}
	m, err := in.build()
	if err != nil {
		return nil, err
	}
	switch s.opts.Algorithm {
	case DistributedUnit:
	case Auto:
		for _, d := range m.Demands {
			if d.Height < 1 {
				return nil, fmt.Errorf("treesched: Auto sessions need unit heights; demand %d has height %v (pin DistributedUnit)", d.ID, d.Height)
			}
		}
	default:
		return nil, fmt.Errorf("treesched: sessions support DistributedUnit or unit-height Auto, not %v", s.opts.Algorithm)
	}
	_, treeKeys := instanceSignature(m, s.opts.Decomposition)
	rec := s.opts.Recorder
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(engine.PhasePrepare)
	}
	layered, err := s.layeredFor(m, treeKeys)
	if err != nil {
		return nil, err
	}
	items, err := engine.BuildTreeItemsLayered(m, layered)
	if err != nil {
		return nil, err
	}
	p := engine.Prepare(items)
	p.SetRecorder(rec)
	if rec != nil {
		rec.EndSpan(engine.PhasePrepare, tok)
	}
	sess := &Session{
		solver:  s,
		layered: layered,
		nv:      m.NumVertices,
		p:       p,
		live:    make(map[int]bool, len(m.Demands)),
		next:    len(m.Demands),
	}
	if !s.opts.DisableWarmStart {
		// Sessions re-solve a churning instance, the workload the warm-start
		// cache exists for: record per-component outcomes and replay them for
		// components later Updates leave untouched. The cache is also what
		// makes the session's solves shard, on Options.Parallelism workers.
		// Solve results are bitwise unaffected (warm.go documents the
		// invariant).
		sess.p.EnableWarmStart()
	}
	for _, d := range m.Demands {
		sess.live[d.ID] = true
	}
	return sess, nil
}

// Demands reports how many demands are currently live in the session.
func (sess *Session) Demands() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return len(sess.live)
}

// Update applies one round of churn and returns the demand ids assigned to
// the arrivals (aligned with c.Add). On error the session is unchanged.
func (sess *Session) Update(c Churn) ([]int, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()

	rec := sess.solver.opts.Recorder
	var utok int64
	if rec != nil {
		utok = rec.StartSpan(engine.PhaseUpdate)
	}

	removing := make(map[int]bool, len(c.Remove))
	for _, id := range c.Remove {
		if !sess.live[id] {
			return nil, fmt.Errorf("treesched: session has no live demand %d", id)
		}
		if removing[id] {
			return nil, fmt.Errorf("treesched: demand %d removed twice", id)
		}
		removing[id] = true
	}

	opts := sess.solver.opts
	arrivals := make([]model.Demand, 0, len(c.Add))
	ids := make([]int, 0, len(c.Add))
	for i, nd := range c.Add {
		h := nd.Height
		if h == 0 {
			h = 1
		}
		access := nd.Access
		if len(access) == 0 {
			access = allTrees(len(sess.layered))
		}
		id := sess.next + len(ids)
		// The acceptance rules are the model's own, so an arrival a
		// from-scratch Instance build would reject is rejected here too.
		d := model.Demand{ID: id, U: nd.U, V: nd.V, Profit: nd.Profit, Height: h, Access: access}
		if err := model.ValidateDemand(d, sess.nv, len(sess.layered)); err != nil {
			return nil, fmt.Errorf("treesched: arrival %d: %w", i, err)
		}
		if h < 1 && opts.Algorithm != DistributedUnit {
			return nil, fmt.Errorf("treesched: arrival %d has height %v; Auto sessions need unit heights (pin DistributedUnit)", i, nd.Height)
		}
		ids = append(ids, id)
		arrivals = append(arrivals, d)
	}
	// Items are built by the same function as a from-scratch build
	// (BuildTreeItemsLayered), so the incremental path cannot drift from
	// it. Apply assigns the item ids.
	add := engine.DemandItems(arrivals, sess.layered)

	// Departures: every item (one per accessible network) of each removed
	// demand, located by one scan of the current set.
	var remove []int
	if len(removing) > 0 {
		items := sess.p.Items()
		for i := range items {
			if removing[items[i].Demand] {
				remove = append(remove, i)
			}
		}
	}

	if err := sess.p.Apply(engine.Delta{Remove: remove, Add: add}); err != nil {
		return nil, err
	}
	for id := range removing {
		delete(sess.live, id)
	}
	for _, id := range ids {
		sess.live[id] = true
	}
	sess.next += len(ids)
	sess.arrived += len(add)
	sess.updates++
	sess.lastRemoved = len(remove)
	sess.lastAdded = len(add)
	if sess.arrived > 2*len(sess.p.Items())+64 {
		// Compact the accreted stale layout state: re-prepare over the
		// current (already densely-indexed) items. Solve results are
		// unaffected — they are a pure function of the item slice. The warm
		// cache dies with the retired Prepared (its component relabelings are
		// invalid under the compacted layout), so the next solve runs cold;
		// fold the retired counters into the session totals first.
		w := sess.p.WarmStats()
		sess.warmBase.WarmSolves += w.WarmSolves
		sess.warmBase.ColdSolves += w.ColdSolves
		sess.warmBase.ComponentsReplayed += w.ComponentsReplayed
		sess.warmBase.ComponentsResolved += w.ComponentsResolved
		var ptok int64
		if rec != nil {
			ptok = rec.StartSpan(engine.PhasePrepare)
		}
		sess.p = engine.Prepare(sess.p.Items())
		sess.p.SetRecorder(rec) // the retired Prepared took the attachment with it
		if rec != nil {
			rec.EndSpan(engine.PhasePrepare, ptok)
		}
		if !sess.solver.opts.DisableWarmStart {
			sess.p.EnableWarmStart()
		}
		sess.arrived = 0
		sess.reprepares++
	}
	if rec != nil {
		rec.EndSpan(engine.PhaseUpdate, utok)
	}
	return ids, nil
}

// Solve runs the unit-height pipeline over the session's current demand
// set. Assignments report the session's demand ids.
func (sess *Session) Solve() (*Result, error) {
	res, _, err := sess.solveLocked(false)
	return res, err
}

// SolveWithItems is Solve plus a copy of the engine item set the result was
// computed from, captured under the same lock acquisition — so the pair is
// epoch-consistent even when other goroutines interleave Updates. This is
// the primitive the internal/serve snapshot publisher builds on: a published
// Result can always be re-derived, bitwise, from the items it claims. The
// item type lives in an internal package; external modules should treat the
// slice as opaque.
func (sess *Session) SolveWithItems() (*Result, []engine.Item, error) {
	return sess.solveLocked(true)
}

func (sess *Session) solveLocked(withItems bool) (*Result, []engine.Item, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	res, err := sess.solver.unitResultFromPrepared(sess.p)
	if err != nil {
		return nil, nil, err
	}
	sess.solves++
	if !withItems {
		return res, nil, nil
	}
	// Shallow clone: engine code never mutates an item's inner slices after
	// construction, and later Applies rewrite whole elements of the
	// session's own slice, never the clone's.
	return res, slices.Clone(sess.p.Items()), nil
}
