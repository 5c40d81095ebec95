package engine

import (
	"slices"
	"sync"

	"treesched/internal/dual"
)

// This file implements run preparation: everything about an item set that
// is independent of the Config and can therefore be built once and reused
// across solves — the dense dual layout (interned demand slots and edge
// indices plus per-item views), the demand and edge member lists that are
// the whole conflict structure of §2 (conflicts.go), and, for the sharded
// pipeline, the per-component relabelings. The root Solver prepares every
// solve afresh; a root Session keeps one Prepared across its solves, and
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
// affect results), and new keys intern at the end. A shard layout is
// relabeled from the global one (relabel) and keeps no interning: its ix
// is nil.
type layout struct {
	views     []ItemView // dense view per item, aligned with items
	demandIDs []int      // demand slot -> external demand id (stream seeding)
	demands   int        // α extent: demand slots the views address
	edges     int        // β extent: edge indices the views address

	ix *dual.Index // global layout only
}

// buildLayout interns every item of the set into a fresh index, in item
// order. All views' index lists share one slab. The index is sized by what
// it interns: demand ids by the runs of equal demand ids (the demand count
// when, as on every build, a demand's instances are adjacent), its edge
// tables by the slab's path entries. The sizing pass also gathers the
// set's plan statistics into st.
func buildLayout(items []Item, st *planStats) *layout {
	total, demands := 0, 0
	for i := range items {
		total += len(items[i].Edges) + len(items[i].Critical)
		if i == 0 || items[i].Demand != items[i-1].Demand {
			demands++
		}
		st.add(&items[i], i)
	}
	lay := &layout{
		ix:    dual.NewIndexSized(demands, total),
		views: make([]ItemView, len(items)),
	}
	slab := make([]int32, total)
	for i := range items {
		it := &items[i]
		n := len(it.Edges) + len(it.Critical)
		lay.views[i] = internItem(lay.ix, it, slab[:n:n])
		slab = slab[n:]
	}
	lay.sync()
	return lay
}

// sync refreshes a global layout's extents and demand ids from its
// interning, after interning new items.
func (lay *layout) sync() {
	lay.demandIDs = lay.ix.DemandIDs()
	lay.demands, lay.edges = lay.ix.NumDemands(), lay.ix.NumEdges()
}

// newCore returns a fresh per-run core over the layout: addressed through
// the global layout's frozen index, or plain dense storage for a shard.
func (lay *layout) newCore(mode Mode) *Core {
	if lay.ix == nil {
		return &Core{Mode: mode, Dual: dual.NewDense(lay.demands, lay.edges)}
	}
	return NewCoreWithIndex(mode, lay.ix)
}

// Prepared is an item set with its Config-independent run state: dense
// layout, dense group member lists, plan statistics, and (lazily) the
// connected components and per-shard relabelings of the sharded pipeline.
// Solve is its one solve entry. A Prepared is immutable during runs apart
// from the lazily-built shard structures (guarded by shardMu), so it is
// safe for concurrent Solve calls. Apply (delta.go) mutates the state
// between runs; it must never overlap a run, another Apply or an
// ItemsView on the same Prepared.
type Prepared struct {
	items []Item
	lay   *layout
	// stats are the item set's plan statistics, gathered by Prepare and
	// kept by Apply, so a solve plans without reading an item.
	stats planStats
	// published is what ItemsView shares with the views it returns
	// (itemsview.go): off until the first call.
	published itemLog
	// demandMembers[s] / edgeMembers[e] list the item ids (ascending) whose
	// demand interned to slot s / whose path contains edge index e. Each
	// list is a clique of the conflict graph, and the graph is their union.
	demandMembers [][]int32
	edgeMembers   [][]int32

	shardMu     sync.Mutex
	shardsBuilt bool
	shardsStale bool // an Apply ran since the last shard build
	comps       [][]int
	shards      []*preShard
	// compOf[i] is the shard of item i's component at the last build, or
	// nil for an item that arrived since. Kept only while the last build
	// sharded (shards != nil); Apply maintains it and, since the last
	// build, collects the shards whose components a delta reached and the
	// ids it gave arrivals (delta.go), so the next build re-traverses from
	// those alone (conflicts.go).
	compOf      []*preShard
	staleShards []*preShard
	arrivals    []int32
	// added counts the items Apply added since the last component pass;
	// knownSingleComponent's verdict expires when it outgrows the set.
	added      int
	compScr    componentScratch // the component pass's reusable marks
	relabelScr relabelScratch   // relabel's reusable translations

	// warm is the per-component outcome cache of the sharded pipeline
	// (warm.go); off unless EnableWarmStart was called.
	warm warmState

	// applyScr is Apply's pooled bookkeeping (delta.go); lazily allocated on
	// the first Apply and reused since Applies never overlap.
	applyScr *applyScratch

	// rec observes phase spans and counters (recorder.go); nil = no-op.
	// Set before the Prepared is shared, read-only during runs.
	rec Recorder
}

// preShard is one conflict component relabeled to dense shard-local ids:
// the item at position i of comp is the shard's item i. Its layout's views
// carry the component's conflict structure as they do globally: each
// view's slot and edge indices are its groups.
type preShard struct {
	comp []int   // global item ids, ascending
	lay  *layout // shard-local dense layout
	// gslot[s] / gedge[e] is the global demand slot / edge index of local
	// slot s / edge index e: relabel's numbering, read back when a caller
	// asks for the merged dual. Valid until the next Apply: Apply never
	// renumbers a live demand or an edge, but it gives a departed demand's
	// slot to an arrival, and a shard whose demand departed is stale.
	gslot []int32
	gedge []int32
	// stale marks a component a delta reached since the last build.
	stale bool
	// out is the warm-start cache's entry: the outcome of the shard's last
	// run, under the configuration warmState records (warm.go). Guarded by
	// the Prepared's warm.mu.
	out *shardOut
}

// Prepare builds the Config-independent run state of an item set: one pass
// interns the dense layout and gathers the plan statistics, and one pass
// over its views groups the items into member lists.
func Prepare(items []Item) *Prepared {
	p := &Prepared{items: items}
	p.lay = buildLayout(items, &p.stats)
	p.demandMembers, p.edgeMembers = buildMembers(p.lay.views, p.lay.demands, p.lay.edges)
	return p
}

// PrepareRecorded is Prepare with rec attached (nil for none), bracketed
// in a PhasePrepare span that counts the member-list entries Prepare wrote:
// one per item in its demand's list and one per path edge.
func PrepareRecorded(items []Item, rec Recorder) *Prepared {
	if rec == nil {
		return Prepare(items)
	}
	tok := rec.StartSpan(PhasePrepare)
	p := Prepare(items)
	p.rec = rec
	entries := len(p.lay.views)
	for i := range p.lay.views {
		entries += len(p.lay.views[i].Edges)
	}
	rec.Count(CounterMemberEntries, int64(entries))
	rec.EndSpan(PhasePrepare, tok)
	return p
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
	if s, ok := p.lay.ix.DemandSlot(id); ok {
		return p.demandMembers[s]
	}
	return nil
}

// Components returns the connected components of the prepared item set's
// conflict graph: each an ascending slice of item ids, ordered by smallest
// member. It is the decomposition the sharded pipeline runs on, built on
// first use. Callers must not mutate it.
func (p *Prepared) Components() [][]int {
	p.ensureShards()
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	return p.comps
}

// ensureShards builds the component decomposition and per-shard
// relabelings, reusing both across runs. After an Apply it refreshes them
// from what the deltas reached: the components of the shards Apply marked
// stale and of the arrivals are traversed again and relabeled, and every
// other component keeps its shard — layout and warm-cache entry —
// untouched, without a pass over its members.
func (p *Prepared) ensureShards() {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	if p.shardsBuilt && !p.shardsStale {
		return
	}
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseComponents)
	}
	// Traverse from the arrivals and the stale shards' members, beside the
	// kept shards, or, on a first build, from every item.
	scr := &p.compScr
	from, kept, outside := scr.from[:0], scr.kept[:0], 0
	incremental := p.shardsStale && p.shards != nil
	if incremental {
		from = append(from, p.arrivals...)
		for _, sh := range p.staleShards {
			for _, id := range sh.comp {
				from = append(from, int32(id))
			}
		}
		for _, sh := range p.shards {
			if !sh.stale {
				kept = append(kept, sh)
				outside += len(sh.comp)
			}
		}
	} else {
		for id := range p.items {
			from = append(from, int32(id))
		}
	}
	scr.from = from
	fresh := scr.components(p.lay.views, p.demandMembers, p.edgeMembers, from, outside)
	visited, relabeled := 0, 0
	for _, c := range fresh {
		visited += len(c)
	}
	clear(p.staleShards)
	p.staleShards, p.arrivals, p.added = p.staleShards[:0], p.arrivals[:0], 0
	p.shardsBuilt, p.shardsStale = true, false
	switch {
	case len(kept)+len(fresh) > 1:
		if !incremental {
			p.compOf = make([]*preShard, len(p.items))
		}
		// Merge the kept shards, in order, with the fresh components by
		// smallest member, relabeling each fresh one.
		comps := make([][]int, 0, len(kept)+len(fresh))
		shards := make([]*preShard, 0, len(kept)+len(fresh))
		k, f := 0, 0
		for k < len(kept) || f < len(fresh) {
			var sh *preShard
			if f == len(fresh) || k < len(kept) && kept[k].comp[0] < fresh[f][0] {
				sh = kept[k]
				k++
			} else {
				sh = p.relabel(fresh[f])
				f++
				for _, id := range sh.comp {
					p.compOf[id] = sh
				}
				relabeled += len(sh.comp)
			}
			shards = append(shards, sh)
			comps = append(comps, sh.comp)
		}
		p.comps, p.shards = comps, shards
	case len(kept) == 1:
		p.comps, p.shards, p.compOf = [][]int{kept[0].comp}, nil, nil
	default:
		p.comps, p.shards, p.compOf = fresh, nil, nil
	}
	clear(kept)
	scr.kept = kept[:0]
	if rec != nil {
		rec.Count(CounterComponentItems, int64(visited))
		rec.Count(CounterRelabeledItems, int64(relabeled))
		rec.EndSpan(PhaseComponents, tok)
	}
}

// relabelScratch holds relabel's translations from global demand slots
// and edge indices to a shard's local ones, −1 where the shard has not
// numbered one yet. relabel resets every entry it set, so between shards
// the translations are all −1 and grow only with the global layout.
type relabelScratch struct {
	slot, edge []int32
}

// extend extends *buf with fill entries to length n, in at most one
// allocation, and returns it: the scratch marks and translations that stay
// valid between uses and grow only with the item set or the layout.
func extend[T any](buf *[]T, n int, fill T) []T {
	if len(*buf) < n {
		*buf = slices.Grow(*buf, n-len(*buf))
	}
	for len(*buf) < n {
		*buf = append(*buf, fill)
	}
	return *buf
}

// number returns the local number of global index x under the translation
// tr, giving x the next local number, recorded in *back, when it has none.
func number(tr []int32, x int32, back *[]int32) int32 {
	l := tr[x]
	if l < 0 {
		l = int32(len(*back))
		tr[x] = l
		*back = append(*back, x)
	}
	return l
}

// relabel builds the shard of one component from the global layout alone,
// copying no item: a dense layout over the items re-indexed by position in
// comp, whose demand slots and edge indices number the global ones in the
// order buildLayout would first see their keys over the shard's items (an
// item's demand, its path, then its critical edges). So the shard's
// numbering, and every bit of its runs, equal those of buildLayout over
// the shard's items, with no key hashed or interned: global slots map to
// keys one to one, so first-seen slots are first-seen keys.
func (p *Prepared) relabel(comp []int) *preShard {
	g, scr := p.lay, &p.relabelScr
	slot := extend(&scr.slot, g.demands, -1)
	edge := extend(&scr.edge, g.edges, -1)
	n, total := len(comp), 0
	for _, id := range comp {
		v := &g.views[id]
		total += len(v.Edges) + len(v.Critical)
	}
	// One slab holds the views' index lists and the edge and slot
	// translations: a shard has at most one edge per path entry and one
	// demand per item.
	slab := make([]int32, 2*total+n)
	idx := slab[:total:total]
	gedge := slab[total : total : 2*total]
	gslot := slab[2*total : 2*total : 2*total+n]
	lay := &layout{views: make([]ItemView, n)}
	sh := &preShard{comp: comp, lay: lay}
	for i, id := range comp {
		v := &g.views[id]
		s := number(slot, v.Slot, &gslot)
		ne, m := len(v.Edges), len(v.Edges)+len(v.Critical)
		edges, critical := idx[:ne:ne], idx[ne:m:m]
		idx = idx[m:]
		for j, e := range v.Edges {
			edges[j] = number(edge, e, &gedge)
		}
		for j, e := range v.Critical {
			critical[j] = number(edge, e, &gedge)
		}
		lay.views[i] = ItemView{Slot: s, Group: v.Group, Profit: v.Profit, Height: v.Height, Edges: edges, Critical: critical}
	}
	lay.demandIDs = make([]int, len(gslot))
	for l, x := range gslot {
		lay.demandIDs[l] = g.demandIDs[x]
		slot[x] = -1
	}
	for _, x := range gedge {
		edge[x] = -1
	}
	lay.demands, lay.edges = len(gslot), len(gedge)
	sh.gslot, sh.gedge = gslot, gedge
	return sh
}

// knownSingleComponent reports whether the last shard build found at most
// one conflict component, without refreshing a stale decomposition. It is a
// heuristic gate for the warm path at every worker count: a contended
// instance whose items all conflict stays one component across churn, and
// paying a fresh component decomposition every round just to discover that
// again would regress the serial hot path. The answer may be stale after an
// Apply — the cost is only a missed warm opportunity, never a wrong result,
// because the serial engine is exact on any instance. So the verdict
// expires once Apply has added more than 2·items+64 items since the pass
// that gave it: a set churned into many components (a Session that grew
// from one demand into a fleet) is looked at again after O(items) churn,
// which amortizes the pass to O(1) per added item.
func (p *Prepared) knownSingleComponent() bool {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	return p.shardsBuilt && len(p.comps) <= 1 && p.added <= 2*len(p.items)+64
}
