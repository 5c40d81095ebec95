package engine

import (
	"slices"
	"sync"

	"treesched/internal/dual"
	"treesched/internal/model"
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

// layout is the dense dual addressing of one item set: a frozen dual.Index
// plus per-item views and per-owner stream bookkeeping. Built once; strictly
// read-only during runs, so any number of concurrent runs may share it.
// Prepared.Apply extends it in place between runs: removed items leave their
// interned slots behind (stale slots hold zero and are never referenced by a
// view, so they cannot affect results), and added items intern at the end.
type layout struct {
	ix        *dual.Index
	views     []ItemView       // dense view per item, aligned with items
	owners    model.IDInterner // owner slot <-> external owner id (stream seeding)
	ownerSlot []int32          // item -> owner slot
}

// buildLayout interns every item of the set into a fresh index, in item
// order. All views' index lists share one slab. The index is sized by what
// it interns: demand ids by the runs of equal demand ids (the demand count
// when, as on every build, a demand's instances are adjacent), its edge
// tables by the slab's path entries.
func buildLayout(items []Item) *layout {
	total, demands := 0, 0
	for i := range items {
		total += len(items[i].Edges) + len(items[i].Critical)
		if i == 0 || items[i].Demand != items[i-1].Demand {
			demands++
		}
	}
	lay := &layout{
		ix:        dual.NewIndexSized(demands, total),
		owners:    model.NewIDInterner(demands),
		views:     make([]ItemView, len(items)),
		ownerSlot: make([]int32, len(items)),
	}
	slab := make([]int32, total)
	for i := range items {
		it := &items[i]
		n := len(it.Edges) + len(it.Critical)
		lay.views[i] = internItem(lay.ix, it, slab[:n:n])
		slab = slab[n:]
		lay.ownerSlot[i] = lay.owners.Intern(it.Owner)
	}
	return lay
}

// newCore returns a fresh per-run core over the layout's frozen index.
func (lay *layout) newCore(mode Mode) *Core {
	return NewCoreWithIndex(mode, lay.ix)
}

// Prepared is an item set with its Config-independent run state: dense
// layout, dense group member lists, and (lazily) the connected components
// and per-shard relabelings of the sharded pipeline. Solve is its one
// solve entry. A Prepared is immutable during runs apart from the
// lazily-built shard structures (guarded by shardMu), so it is safe for
// concurrent Solve calls. Apply (delta.go) mutates the state between runs;
// it must never overlap a run or another Apply on the same Prepared.
type Prepared struct {
	items []Item
	lay   *layout
	// demandMembers[s] / edgeMembers[e] list the item ids (ascending) whose
	// demand interned to slot s / whose path contains edge index e. Each
	// list is a clique of the conflict graph, and the graph is their union.
	demandMembers [][]int32
	edgeMembers   [][]int32

	shardMu     sync.Mutex
	shardsBuilt bool
	shardsStale bool   // an Apply ran since the last shard build
	touched     []bool // items a delta reached since then (delta.go)
	comps       [][]int
	shards      []*preShard

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

// preShard is one conflict component relabeled to dense shard-local ids.
// Its layout's views carry the component's conflict structure as they do
// globally: each view's slot and edge indices are its groups.
type preShard struct {
	comp  []int   // global item ids, ascending
	items []Item  // re-indexed copies (ID = position in comp)
	lay   *layout // shard-local dense layout
}

// Prepare builds the Config-independent run state of an item set: one pass
// interns the dense layout, and one pass over its views groups the items
// into member lists.
func Prepare(items []Item) *Prepared {
	lay := buildLayout(items)
	dm, em := buildMembers(lay.views, lay.ix.NumDemands(), lay.ix.NumEdges())
	return &Prepared{
		items:         items,
		lay:           lay,
		demandMembers: dm,
		edgeMembers:   em,
	}
}

// PrepareWorkers is Prepare; the worker count is ignored.
//
// Deprecated: use Prepare.
func PrepareWorkers(items []Item, workers int) *Prepared { return Prepare(items) }

// Items returns the prepared item set. Callers must not mutate it.
func (p *Prepared) Items() []Item { return p.items }

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

// ensureShards builds the component decomposition and per-shard relabelings,
// reusing both across runs. After an Apply, the decomposition is refreshed
// incrementally: components untouched by any delta since the last build —
// same member ids, no member reached by the churn — keep their relabeled
// shard (items and shard-local layout) verbatim, and only components the
// churn actually reached are relabeled again.
func (p *Prepared) ensureShards() {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	if p.shardsBuilt && !p.shardsStale {
		return
	}
	var tok int64
	if p.rec != nil {
		tok = p.rec.StartSpan(PhaseComponents)
	}
	var prev [][]int
	if p.shardsStale && len(p.touched) == len(p.items) {
		prev = p.comps
	}
	comps := conflictComponents(p.lay.views, p.demandMembers, p.edgeMembers, prev, p.touched)
	var reusable map[int]*preShard // previous shards by smallest member id
	if p.shardsStale && len(p.shards) > 0 {
		reusable = make(map[int]*preShard, len(p.shards))
		for _, sh := range p.shards {
			if len(sh.comp) > 0 {
				reusable[sh.comp[0]] = sh
			}
		}
	}
	p.comps = comps
	p.shards = nil
	p.shardsBuilt = true
	p.shardsStale = false
	touched := p.touched
	p.touched = nil
	if len(comps) <= 1 {
		if p.rec != nil {
			p.rec.EndSpan(PhaseComponents, tok)
		}
		return
	}
	p.shards = make([]*preShard, len(comps))
	for s, comp := range comps {
		if sh := reusable[comp[0]]; sh != nil && slices.Equal(sh.comp, comp) && !anyTouched(touched, comp) {
			p.shards[s] = sh
			continue
		}
		sh := &preShard{comp: comp}
		sh.items = make([]Item, len(comp))
		for i, id := range comp {
			sh.items[i] = p.items[id]
			sh.items[i].ID = i
		}
		sh.lay = buildLayout(sh.items)
		p.shards[s] = sh
	}
	if p.rec != nil {
		p.rec.EndSpan(PhaseComponents, tok)
	}
}

// knownSingleComponent reports whether the last shard build found at most
// one conflict component, without refreshing a stale decomposition. It is a
// heuristic gate for the warm path at every worker count: a contended
// instance whose items all conflict stays one component across churn, and
// paying a fresh component decomposition every round just to discover that
// again would regress the serial hot path. The answer may be stale after an
// Apply — the cost is only a missed warm opportunity, never a wrong result,
// because the serial engine is exact on any instance.
func (p *Prepared) knownSingleComponent() bool {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	return p.shardsBuilt && len(p.comps) <= 1
}

func anyTouched(touched []bool, comp []int) bool {
	for _, id := range comp {
		if id < len(touched) && touched[id] {
			return true
		}
	}
	return false
}
