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
// depart. Where Solver.Solve prepares a complete instance from scratch on
// every call, Session.Update applies the churn as an engine delta — only the
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
	// live lists the live demand ids, ascending: the initial ids are
	// 0..n−1 and every arrival takes an id above all earlier ones, so
	// arrivals append and departures filter in place.
	live []int
	next int // next demand id to assign
	// Observability counters behind Stats; all guarded by mu.
	updates     int
	solves      int
	lastRemoved int
	lastAdded   int
}

// SessionStats is a snapshot of a session's incremental-state health, for
// operators and the serve layer: how large the live set is, how big the
// last applied delta was, and how often solves replayed the warm cache.
type SessionStats struct {
	// Live is the number of live demands; Items counts their demand
	// instances (one per accessible network), the unit the engine works in.
	Live  int
	Items int
	// Updates and Solves count successful calls since the session was
	// created. Failed updates change no state and are not counted.
	Updates int
	Solves  int
	// Reprepares is always 0: a Session keeps one prepared state for its
	// whole life, because a departed demand's slot goes to a later arrival
	// instead of accreting. The field stays only while the benchmark and
	// the serve metrics still read it.
	Reprepares int
	// LastRemoved / LastAdded are the item delta sizes of the most recent
	// successful Update (zero before the first).
	LastRemoved int
	LastAdded   int
	// Warm-start accounting: WarmSolves counts solves that replayed at
	// least one cached component, ColdSolves the rest, so
	// WarmSolves+ColdSolves == Solves. ComponentsReplayed/
	// ComponentsResolved break sharded solves down by component: replayed
	// from the warm cache versus re-run through the schedule.
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
		LastRemoved:        sess.lastRemoved,
		LastAdded:          sess.lastAdded,
		WarmSolves:         w.WarmSolves,
		ColdSolves:         w.ColdSolves,
		ComponentsReplayed: w.ComponentsReplayed,
		ComponentsResolved: w.ComponentsResolved,
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
// The instance is prepared once, over the solver's cached decompositions;
// the session keeps those decompositions, so subsequent Update calls build
// arrivals over them, mutate only the session's private prepared state, and
// never touch the solver's cache.
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
	rec := s.opts.Recorder
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(engine.PhasePrepare)
	}
	layered, err := s.layeredFor(m)
	if err != nil {
		return nil, err
	}
	items := engine.DemandItems(m.Demands, layered) // in.build validated m
	if rec != nil {
		rec.EndSpan(engine.PhasePrepare, tok)
	}
	p := engine.PrepareRecorded(items, rec)
	sess := &Session{
		solver:  s,
		layered: layered,
		nv:      m.NumVertices,
		p:       p,
		live:    make([]int, len(m.Demands)),
		next:    len(m.Demands),
	}
	for i := range sess.live {
		sess.live[i] = i // Instance ids are the demands' positions
	}
	// Sessions re-solve a churning instance, the workload the warm-start
	// cache exists for: record per-component outcomes and replay them for
	// components later Updates leave untouched. The cache is also what
	// makes the session's solves shard, on Options.Parallelism workers.
	// Solve results are bitwise unaffected (warm.go documents the
	// invariant).
	sess.p.EnableWarmStart()
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

	// Departures are checked as one sorted batch; on a fault removalError
	// names the first offending id in batch order.
	removing := slices.Clone(c.Remove)
	slices.Sort(removing)
	for i, id := range removing {
		if _, ok := slices.BinarySearch(sess.live, id); !ok || i > 0 && removing[i-1] == id {
			return nil, removalError(c.Remove, sess.live)
		}
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
	// (Solver.Session's and Solver.Solve's), so the incremental path
	// cannot drift from it. Apply assigns the item ids.
	add := engine.DemandItems(arrivals, sess.layered)

	// Departures: every item (one per accessible network) of each removed
	// demand, read off that demand's member list.
	var remove []int
	for _, id := range removing {
		for _, i := range sess.p.ItemsOfDemand(id) {
			remove = append(remove, int(i))
		}
	}

	if err := sess.p.Apply(engine.Delta{Remove: remove, Add: add}); err != nil {
		return nil, err
	}
	if len(removing) > 0 {
		// Both lists ascend, so one merge pass drops the departures.
		kept, k := sess.live[:0], 0
		for _, id := range sess.live {
			if k < len(removing) && removing[k] == id {
				k++
				continue
			}
			kept = append(kept, id)
		}
		sess.live = kept
	}
	sess.live = append(sess.live, ids...)
	sess.next += len(ids)
	sess.updates++
	sess.lastRemoved = len(remove)
	sess.lastAdded = len(add)
	if rec != nil {
		rec.EndSpan(engine.PhaseUpdate, utok)
	}
	return ids, nil
}

// Solve runs the unit-height pipeline over the session's current demand
// set. Assignments report the session's demand ids.
func (sess *Session) Solve() (*Result, error) {
	res, _, _, err := sess.solveLocked(false)
	return res, err
}

// SolveWithItems is Solve plus two captures under the same lock
// acquisition: an immutable view of the engine item set the result was
// computed from, and a copy of the live demand ids, ascending — so the
// triple is epoch-consistent even when other goroutines interleave
// Updates. This is the primitive the internal/serve snapshot publisher
// builds on: a published Result can always be re-derived, bitwise, from
// the items it claims, and its admission split needs no pass over the
// items. The live ids are the distinct Demand fields of the items. The
// view shares its items with the session's later rounds and costs O(1)
// amortized per written item (engine.ItemsView); its Items method
// materializes them on request. The view type lives in an internal
// package; external modules should treat it as opaque.
func (sess *Session) SolveWithItems() (*Result, engine.ItemsView, []int, error) {
	return sess.solveLocked(true)
}

func (sess *Session) solveLocked(withItems bool) (*Result, engine.ItemsView, []int, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	opts := sess.solver.opts
	res := &Result{}
	selected, err := runPrepared(sess.p, opts.engineConfig(), opts, res)
	if err != nil {
		return nil, engine.ItemsView{}, nil, err
	}
	items := sess.p.Items()
	res.Assignments = make([]Assignment, 0, len(selected))
	for _, id := range selected {
		res.Assignments = append(res.Assignments, Assignment{Demand: items[id].Demand, Network: items[id].Resource})
	}
	sess.solves++
	if !withItems {
		return res, engine.ItemsView{}, nil, nil
	}
	// Update filters sess.live in place, so it is copied.
	return res, sess.p.ItemsView(), slices.Clone(sess.live), nil
}

// removalError names the first id of remove, in batch order, that is not
// live or repeats an earlier one. live is ascending.
func removalError(remove, live []int) error {
	seen := make(map[int]bool, len(remove))
	for _, id := range remove {
		if _, ok := slices.BinarySearch(live, id); !ok {
			return fmt.Errorf("treesched: session has no live demand %d", id)
		}
		if seen[id] {
			return fmt.Errorf("treesched: demand %d removed twice", id)
		}
		seen[id] = true
	}
	panic("treesched: removalError called on a valid batch")
}
