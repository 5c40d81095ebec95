package engine

import (
	"slices"
	"sync"

	"treesched/internal/decomp"
	"treesched/internal/dual"
	"treesched/internal/model"
)

// This file implements run preparation: everything about an item set that
// is independent of the Config and can therefore be built once and reused
// across solves — the dense dual layout (interned demand slots and edge
// indices plus per-item views, which also name each item's conflict
// groups, conflicts.go), and, built on first read, the demand member lists
// and, for the sharded pipeline, the table of conflict components with
// the demand slots and edge indices each uses. The root Solver prepares
// every solve afresh, in a pooled Arena, and its serial solve reads none
// of the latter; a root Session keeps one Prepared across its solves, and
// for churning workloads — demands arriving and departing on an unchanged
// network — Prepared.Apply (delta.go) updates it incrementally.

// layout is the dense dual addressing of one item set: per-item views over
// demands α slots and edges β slots. A demand slot also names the
// processor that owns the demand (§2: one per demand), and so the item's
// priority stream. Strictly read-only during runs, so any number of
// concurrent runs may share it. A Prepared's global layout also keeps the
// interning that numbers it (ix), and Prepared.Apply updates it in place
// between runs: a departed demand's slot goes back to the index for a
// later arrival, removed items leave their edge indices behind (stale
// indices hold zero and are never referenced by a view, so they cannot
// affect results), and new keys intern at the end. A shard of the sharded
// pipeline runs over the same layout, confined to its own items.
type layout struct {
	views     []ItemView // dense view per item, aligned with items
	demandIDs []int      // demand slot -> external demand id (stream seeding)
	demands   int        // α extent: demand slots the views address
	edges     int        // β extent: edge indices the views address

	ix *dual.Index
}

// build interns every item of the set into the layout's index, emptied
// first, in item order. All views' index lists share one slab; the views
// and the slab are a's, or fresh when a is nil. The index is sized by what
// it interns: demand ids by the runs of equal demand ids (the demand count
// when, as on every build, a demand's instances are adjacent), its edge
// tables by the items' path entries. The sizing pass also gathers the
// set's plan statistics into st, emptied first.
func (lay *layout) build(items []Item, st *planStats, a *Arena) {
	if a == nil {
		a = new(Arena) // fresh storage, which only the layout keeps
	}
	st.reset()
	paths, total, demands := 0, 0, 0
	for i := range items {
		paths += len(items[i].Edges)
		total += len(items[i].Edges) + len(items[i].Critical)
		if i == 0 || items[i].Demand != items[i-1].Demand {
			demands++
		}
		st.add(&items[i], i)
	}
	lay.ix.Reset(demands, paths)
	lay.views = resize(&a.views, len(items))
	slab := resize(&a.idx, total)
	for i := range items {
		it := &items[i]
		n := len(it.Edges) + len(it.Critical)
		lay.views[i] = internItem(lay.ix, it, slab[:n:n])
		slab = slab[n:]
	}
	lay.sync()
}

// sync refreshes a global layout's extents and demand ids from its
// interning, after interning new items.
func (lay *layout) sync() {
	lay.demandIDs = lay.ix.DemandIDs()
	lay.demands, lay.edges = lay.ix.NumDemands(), lay.ix.NumEdges()
}

// Prepared is an item set with its Config-independent run state: dense
// layout, plan statistics, and, built on first read, the demand member
// lists and the table of conflict components the sharded pipeline runs.
// Solve is its one solve entry. One lock, mu, guards all of its mutable
// run state: the member lists, the shard table and its owners, and the
// sharded pipeline's shared dual, merge totals and warm cache. Runs change
// nothing else, so a Prepared is safe for concurrent Solve calls — but for
// one built in an Arena, which serves one serial solve. Apply (delta.go)
// mutates the state between runs; it must never overlap a run, another
// Apply or an ItemsView on the same Prepared.
type Prepared struct {
	items []Item
	lay   *layout
	// stats are the item set's plan statistics, gathered by Prepare and
	// kept by Apply, so a solve plans without reading an item.
	stats planStats
	// published is what ItemsView shares with the views it returns
	// (itemsview.go): off until the first call.
	published itemLog
	// arena is the Arena the Prepared was built in, nil for fresh storage:
	// its serial run's α/β are the arena's too (runDual).
	arena *Arena

	// mu guards every field below but applyScr and rec. A warm Prepared's
	// sharded solve holds it throughout, so concurrent sharded solves
	// serialize on the dual they share; its serial solve runs outside it.
	mu sync.Mutex
	// demandMembers[s] lists the item ids (ascending) whose demand
	// interned to slot s: built by its first reader (ensureDemandMembers)
	// and patched by Apply.
	demandMembers [][]int32
	demandsBuilt  bool

	// shards is the table of the conflict components, one shard each, in
	// no order: built by the first component pass (ensureShards), over
	// every item, and refreshed in place by every later one. A single
	// component is a table of one.
	shardsBuilt bool
	shards      []*preShard
	// slotOwner[s] / edgeOwner[e] is the shard whose items use demand slot
	// s / edge index e, or nil for none. Once the table is built, Apply
	// marks stale through them the shards its departures leave and its
	// arrivals join, and collects those and the ids it gave arrivals
	// (delta.go), so the next pass finds the components among those alone
	// (conflicts.go): the table is stale exactly while either list is not
	// empty. A shard the pass replaces gives its entries up (retire).
	slotOwner   []*preShard
	edgeOwner   []*preShard
	staleShards []*preShard
	arrivals    []int32
	// retired lists the replaced shards that hold a recorded outcome, for
	// the next sharded run, which zeroes their entries of dual and folds
	// their outcomes out of the merge totals.
	retired []*preShard
	// added counts the items Apply added since the last component pass;
	// knownSingleComponent's verdict expires when it outgrows the set.
	added   int
	compScr componentScratch // the component pass's reusable marks

	// warm is the per-component outcome cache of the sharded pipeline
	// (warm.go); off unless EnableWarmStart was called.
	warm warmState

	// dual is the one assignment every shard runs in, over the global
	// index, each shard's entries its last run's; totals are the merge's
	// running aggregates over the outcomes it folded in (parallel.go).
	dual   *dual.Assignment
	totals mergeTotals

	// applyScr is Apply's pooled bookkeeping (delta.go); lazily allocated on
	// the first Apply and reused since Applies never overlap.
	applyScr *applyScratch

	// rec observes phase spans and counters (recorder.go); nil = no-op.
	// Set before the Prepared is shared, read-only during runs.
	rec Recorder
}

// preShard is one conflict component of the sharded pipeline: its items'
// global ids, ascending, and the demand slots and edge indices they use,
// each once. Those are the groups the shard owns, the entries of the
// shared dual its runs write, and all its run reads besides the views: a
// shard runs in place, over the global layout.
type preShard struct {
	comp  []int
	slots []int32
	edges []int32
	// stale marks a component a delta reached since the last pass.
	stale bool
	// out is the warm-start cache's entry: the outcome of the shard's last
	// run, under the configuration warmState records (warm.go).
	out *shardOut
}

// Prepare builds the Config-independent run state of an item set, in
// fresh storage: one pass interns the dense layout and gathers the plan
// statistics. The member lists wait for their first reader
// (ensureDemandMembers), which a serial solve never is.
func Prepare(items []Item) *Prepared { return PrepareRecorded(items, nil, nil) }

// PrepareRecorded is Prepare with rec attached (nil for none), bracketed
// in a PhasePrepare span, and built in a (nil for fresh storage): the
// Prepared, its layout, views and index are the arena's, and so are the
// α/β of its serial run, so it serves one serial solve, whose Result's
// Dual is valid until the arena is released. It serves item sets that
// arrive already built: line items, §6 height classes, the sequential
// algorithm's and tests'; tree demands prepare through PrepareDemands.
func PrepareRecorded(items []Item, rec Recorder, a *Arena) *Prepared {
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhasePrepare)
	}
	p := newPrepared(a, rec)
	p.items = items
	p.lay.build(items, &p.stats, a)
	if rec != nil {
		rec.EndSpan(PhasePrepare, tok)
	}
	return p
}

// PrepareDemands is Prepare(DemandItems(demands, layered, a)) in one walk
// per item — the same items, views, index numbering, demand slots and plan
// statistics — with rec attached and bracketed as PrepareRecorded is: each
// item's path is interned as it is walked, and π(d)'s indices are read off
// the path's by position (demandItems). The demands must be validated.
// The items and the preparation are a's, as DemandItems' and
// PrepareRecorded's are, or fresh when a is nil.
func PrepareDemands(demands []model.Demand, layered []*decomp.Layered, rec Recorder, a *Arena) *Prepared {
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhasePrepare)
	}
	p := newPrepared(a, rec)
	if a == nil {
		a = new(Arena) // fresh storage, which only the Prepared keeps
	}
	p.items = demandItems(demands, layered, a, p.lay, &p.stats)
	p.lay.sync()
	if rec != nil {
		rec.EndSpan(PhasePrepare, tok)
	}
	return p
}

// newPrepared returns an empty Prepared with rec attached, over a's
// layout and index when a is non-nil, or else fresh ones.
func newPrepared(a *Arena, rec Recorder) *Prepared {
	if a == nil {
		return &Prepared{lay: &layout{ix: new(dual.Index)}, rec: rec}
	}
	a.lay = layout{ix: &a.ix}
	a.prep = Prepared{lay: &a.lay, arena: a, rec: rec, stats: a.prep.stats} // the build empties the stats
	return &a.prep
}

// runDual returns a fresh dual assignment over the global index for one
// serial run: in the arena's storage when the Prepared was built in one,
// else new.
func (p *Prepared) runDual() *dual.Assignment {
	if p.arena == nil {
		return dual.NewWithIndex(p.lay.ix)
	}
	p.arena.dual.Reset(p.lay.ix)
	return &p.arena.dual
}

// ensureDemandMembers builds the demand member lists on their first read
// — by Apply or ItemsOfDemand — and counts their entries with the
// recorder. Callers hold mu.
func (p *Prepared) ensureDemandMembers() {
	if p.demandsBuilt {
		return
	}
	var entries int
	p.demandMembers, entries = buildMembers(p.lay.views, p.lay.demands, false)
	p.demandsBuilt = true
	if p.rec != nil {
		p.rec.Count(CounterMemberEntries, int64(entries))
	}
}

// PrepareWorkers is Prepare; the worker count is ignored.
//
// Deprecated: use Prepare.
func PrepareWorkers(items []Item, workers int) *Prepared { return Prepare(items) }

// Items returns the prepared item set. Callers must not mutate it.
func (p *Prepared) Items() []Item { return p.items }

// ItemsOfDemand returns the ids of the items of demand id, ascending: its
// member list, or nil for a demand the set does not hold. Callers must not
// mutate it, and it is valid until the next Apply.
func (p *Prepared) ItemsOfDemand(id int) []int32 {
	s, ok := p.lay.ix.DemandSlot(id)
	if !ok {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureDemandMembers()
	return p.demandMembers[s]
}

// Components returns the connected components of the prepared item set's
// conflict graph: each an ascending slice of item ids, ordered by smallest
// member. It refreshes the shard table the sharded pipeline runs on, and
// lists its shards' items. Callers must not mutate the lists.
func (p *Prepared) Components() [][]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureShards()
	comps := make([][]int, len(p.shards))
	for i, sh := range p.shards {
		comps[i] = sh.comp
	}
	slices.SortFunc(comps, func(a, b []int) int { return a[0] - b[0] })
	return comps
}

// ensureShards brings the shard table up to date. The first pass finds
// the components among every item. Every later one finds them among the
// arrivals and the members of the shards Apply marked stale since, drops
// those shards from the table in place and appends the fresh ones, each
// of which owns its groups; every other component keeps its shard — and
// warm-cache entry — untouched, without a pass over its members. Callers
// hold mu.
func (p *Prepared) ensureShards() {
	if p.shardsBuilt && len(p.staleShards) == 0 && len(p.arrivals) == 0 {
		return
	}
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseComponents)
	}
	scr := &p.compScr
	from := scr.from[:0]
	if p.shardsBuilt {
		from = append(from, p.arrivals...)
		for _, sh := range p.staleShards {
			for _, id := range sh.comp {
				from = append(from, int32(id))
			}
			p.retire(sh)
		}
		p.shards = slices.DeleteFunc(p.shards, func(sh *preShard) bool { return sh.stale })
	}
	scr.from = from
	fresh := scr.components(p.lay.views, from, !p.shardsBuilt, p.lay.demands, p.lay.edges)
	slotOwner := extend(&p.slotOwner, p.lay.demands, nil)
	edgeOwner := extend(&p.edgeOwner, p.lay.edges, nil)
	for _, sh := range fresh {
		for _, s := range sh.slots {
			slotOwner[s] = sh
		}
		for _, e := range sh.edges {
			edgeOwner[e] = sh
		}
	}
	p.shards = append(p.shards, fresh...)
	clear(fresh)
	scr.fresh = fresh[:0]
	clear(p.staleShards)
	p.staleShards, p.arrivals, p.added = p.staleShards[:0], p.arrivals[:0], 0
	p.shardsBuilt = true
	if rec != nil {
		rec.Count(CounterComponentItems, int64(len(scr.region)))
		rec.EndSpan(PhaseComponents, tok)
	}
}

// retire drops a stale shard from the owner entries and, when a sharded
// run recorded an outcome for it, leaves it to the next sharded run, which
// zeroes its entries of the shared dual and folds its outcome out of the
// merge totals. A shard without one wrote no entry of the dual: a run
// records every shard's outcome, and a run that fails discards the dual.
// Callers hold mu.
func (p *Prepared) retire(sh *preShard) {
	for _, s := range sh.slots {
		p.slotOwner[s] = nil
	}
	for _, e := range sh.edges {
		p.edgeOwner[e] = nil
	}
	if sh.out != nil {
		p.retired = append(p.retired, sh)
	}
}

// extend extends *buf with fill entries to length n, in at most one
// allocation, and returns it: the scratch marks that stay valid between
// uses and grow only with the item set or the layout.
func extend[T any](buf *[]T, n int, fill T) []T {
	if len(*buf) < n {
		*buf = slices.Grow(*buf, n-len(*buf))
	}
	for len(*buf) < n {
		*buf = append(*buf, fill)
	}
	return *buf
}

// knownSingleComponent reports whether the shard table held at most one
// conflict component after the last pass, without refreshing a stale
// table. It is a
// heuristic gate for the warm path at every worker count: a contended
// instance whose items all conflict stays one component across churn, and
// paying a fresh component decomposition every round just to discover that
// again would regress the serial hot path. The answer may be stale after an
// Apply — the cost is only a missed warm opportunity, never a wrong result,
// because the serial engine is exact on any instance. So the verdict
// expires once Apply has added more than 2·items+64 items since the pass
// that gave it: a set churned into many components (a Session that grew
// from one demand into a fleet) is looked at again after O(items) churn,
// which amortizes the pass to O(1) per added item. Callers hold mu.
func (p *Prepared) knownSingleComponent() bool {
	return p.shardsBuilt && len(p.shards) <= 1 && p.added <= 2*len(p.items)+64
}
