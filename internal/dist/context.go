package dist

import (
	"slices"

	"treesched/internal/engine"
)

// runContext is the read-only state one distributed run shares across all
// of its processor nodes: the schedule, the engine's interned dense layout
// (items, views, group member lists), and the node-level projections of it
// (ownership, topology, per-node edge numberings and local views). It is
// built once per run from an engine.Prepared and never mutated afterwards,
// so a million nodes can read it concurrently — this is what lets per-node
// state shrink to a few slots: everything shape-like lives here, exactly
// once, instead of being copied into every node as the pre-compaction
// runtime did.
//
// All variable-length rows are subslices of per-field arenas (one backing
// array per field, not one allocation per node), so building the context
// for n nodes costs O(total content) allocations, not O(n).
type runContext struct {
	mode       engine.Mode
	seed       int64
	plan       *engine.Plan
	budget     int // B: Luby iterations per step
	period     int // 2B+1 rounds per step
	totalSteps int // T
	lastRound  int // ScheduleLength-1

	items []engine.Item     // shared with the Prepared; read-only
	views []engine.ItemView // global dense views, aligned with items
	// edgeMembers[e] lists, ascending, the items whose path contains edge
	// index e (engine.Prepared.EdgeMembers). With the views' demand slots
	// it is the §2 conflict relation.
	edgeMembers [][]int32

	itemNode   []int32   // item id -> owning node
	nodeItems  [][]int32 // node -> own item ids, ascending
	nodeDemand []int     // node -> its demand's external id (PRNG stream seeding)
	topology   [][]int   // node -> neighbor node ids, sorted ascending
	// targets[x] lists, for item x, the positions (into the owner's sorted
	// topology row) of the neighbors holding an item conflicting with x —
	// the recipients of x's draws and raise announcements.
	targets [][]int32
	// nodeEdges[a] is node a's sorted set of global β indices: the union of
	// its items' path edges. Each node's dual assignment is dense over this
	// local numbering.
	nodeEdges [][]int32
	// local[a] holds node a's items' views re-addressed to its local dual:
	// Slot 0 (one demand per processor), Edges/Critical as indices into
	// nodeEdges[a].
	local [][]engine.ItemView

	sharedBytes int64 // resident bytes of the context-owned arenas
}

// buildContext projects the prepared global layout onto the processor
// model: one node per demand, as the paper's model has one processor per
// demand (§2).
func buildContext(prep *engine.Prepared, cfg engine.Config, plan *engine.Plan, budget int) *runContext {
	items := prep.Items()
	ctx := &runContext{
		mode:       cfg.Mode,
		seed:       cfg.Seed,
		plan:       plan,
		budget:     budget,
		period:     2*budget + 1,
		totalSteps: plan.TotalSteps(),
		items:      items,
		views:      prep.Views(),
	}
	ctx.edgeMembers = prep.EdgeMembers()
	ctx.lastRound = ScheduleLength(ctx.totalSteps, budget) - 1

	// Nodes are ordered by ascending demand id.
	m := len(items)
	ctx.nodeDemand = make([]int, m)
	for i := range items {
		ctx.nodeDemand[i] = items[i].Demand
	}
	slices.Sort(ctx.nodeDemand)
	ctx.nodeDemand = slices.Compact(ctx.nodeDemand)
	n := len(ctx.nodeDemand)

	// Ownership rows: items are scanned in id order, so each node's row is
	// ascending by construction.
	ctx.itemNode = make([]int32, m)
	counts := make([]int32, n)
	for i := range items {
		nd, _ := slices.BinarySearch(ctx.nodeDemand, items[i].Demand)
		ctx.itemNode[i] = int32(nd)
		counts[nd]++
	}
	ctx.nodeItems = fillRows32(counts, func(emit func(node int32, v int32)) {
		for i := range items {
			emit(ctx.itemNode[i], int32(i))
		}
	})

	ctx.buildTopology(n)
	ctx.buildLocalViews(n)
	ctx.accountShared()
	return ctx
}

// fillRows32 builds [][]int32 rows over a single arena: counts gives each
// row's length, fill emits (row, value) pairs in row-internal order.
func fillRows32(counts []int32, fill func(emit func(node int32, v int32))) [][]int32 {
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	arena := make([]int32, total)
	rows := make([][]int32, len(counts))
	off := 0
	for i, c := range counts {
		rows[i] = arena[off : off : off+int(c)]
		off += int(c)
	}
	fill(func(node int32, v int32) {
		rows[node] = append(rows[node], v)
	})
	return rows
}

// buildTopology computes, per item, the distinct nodes holding an item
// that conflicts with it — the recipients of its draws and raise
// announcements — and connects two processors iff one holds such a
// neighbor of the other (the §2 conflict graph projected onto processors):
// exactly the pairs that ever need to exchange messages. The neighbors are
// the owners of the other members of the item's edge groups. Its demand
// group adds none, because every item of a demand is on its demand's node. Targets are finally stored as positions into the
// owner's topology row (the per-neighbor outbox bucket); their order is
// immaterial, since each target receives one entry per item.
func (ctx *runContext) buildTopology(n int) {
	m := len(ctx.items)
	lens := make([]int32, m)
	seen := make([]int32, n) // node -> 1 + the last item, later node, that listed it
	var arena []int32
	for v := 0; v < m; v++ {
		a := ctx.itemNode[v]
		start := len(arena)
		for _, e := range ctx.views[v].Edges {
			for _, w := range ctx.edgeMembers[e] {
				if b := ctx.itemNode[w]; b != a && seen[b] != int32(v)+1 {
					seen[b] = int32(v) + 1
					arena = append(arena, b)
				}
			}
		}
		lens[v] = int32(len(arena) - start)
	}
	ctx.targets = make([][]int32, m)
	off := 0
	for v := range ctx.targets {
		end := off + int(lens[v])
		ctx.targets[v] = arena[off:end:end]
		off = end
	}
	// A node's topology row is the sorted union of its items' targets, so
	// the rows fit in one arena of len(arena) entries. Once a row is built,
	// its items' targets turn from node ids into row positions.
	clear(seen)
	pos := make([]int32, n)
	topo := make([]int, 0, len(arena))
	ctx.topology = make([][]int, n)
	for a := range ctx.topology {
		start := len(topo)
		for _, v := range ctx.nodeItems[a] {
			for _, b := range ctx.targets[v] {
				if seen[b] != int32(a)+1 {
					seen[b] = int32(a) + 1
					topo = append(topo, int(b))
				}
			}
		}
		row := topo[start:len(topo):len(topo)]
		slices.Sort(row)
		ctx.topology[a] = row
		for i, b := range row {
			pos[b] = int32(i)
		}
		for _, v := range ctx.nodeItems[a] {
			for i, b := range ctx.targets[v] {
				ctx.targets[v][i] = pos[b]
			}
		}
	}
}

// buildLocalViews numbers each node's β-edges densely (sorted union of its
// items' paths) and re-addresses its items' views to that numbering, with
// the single α slot 0. The raise/satisfaction arithmetic over these local
// views is operand-for-operand the arithmetic the engine performs over the
// global layout — only the addressing differs — which is the heart of the
// bitwise dist ≡ engine argument.
func (ctx *runContext) buildLocalViews(n int) {
	edgeCounts := make([]int32, n)
	viewLens := 0
	for i := range ctx.views {
		v := &ctx.views[i]
		edgeCounts[ctx.itemNode[i]] += int32(len(v.Edges))
		viewLens += len(v.Edges) + len(v.Critical)
	}
	ctx.nodeEdges = fillRows32(edgeCounts, func(emit func(node int32, v int32)) {
		for i := range ctx.views {
			nd := ctx.itemNode[i]
			for _, e := range ctx.views[i].Edges {
				emit(nd, e)
			}
		}
	})
	for a := range ctx.nodeEdges {
		slices.Sort(ctx.nodeEdges[a])
		ctx.nodeEdges[a] = slices.Compact(ctx.nodeEdges[a])
	}

	viewArena := make([]engine.ItemView, len(ctx.items))
	ixArena := make([]int32, 0, viewLens)
	ctx.local = make([][]engine.ItemView, n)
	off := 0
	for a := 0; a < n; a++ {
		own := ctx.nodeItems[a]
		ctx.local[a] = viewArena[off : off+len(own)]
		off += len(own)
		edges := ctx.nodeEdges[a]
		for k, g := range own {
			gv := &ctx.views[g]
			lv := &ctx.local[a][k]
			lv.Slot = 0
			lv.Profit = gv.Profit
			lv.Height = gv.Height
			lv.Edges, ixArena = localizeIdx(gv.Edges, edges, ixArena)
			lv.Critical, ixArena = localizeIdx(gv.Critical, edges, ixArena)
		}
	}
}

// localizeIdx translates global β indices to positions in the node's sorted
// edge set, appending into the shared arena (pre-sized, so subslices stay
// valid).
func localizeIdx(global, sorted []int32, arena []int32) ([]int32, []int32) {
	start := len(arena)
	for _, g := range global {
		li, ok := findIdx(sorted, g)
		if !ok {
			panic("dist: item edge missing from its node's edge set")
		}
		arena = append(arena, li)
	}
	return arena[start:len(arena):len(arena)], arena
}

// findIdx binary-searches a sorted []int32.
//
//schedvet:hot
func findIdx(sorted []int32, g int32) (int32, bool) {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == g {
		return int32(lo), true
	}
	return 0, false
}

// conflict reports whether items x and w conflict by the §2 definition:
// they share a demand, or w is a member of one of x's edge groups (binary
// search of the ascending member lists). It reads only shared state, so it
// costs no per-node bytes.
//
//schedvet:hot
func (ctx *runContext) conflict(x, w int32) bool {
	vx := &ctx.views[x]
	if ctx.views[w].Slot == vx.Slot {
		return true
	}
	for _, e := range vx.Edges {
		if _, ok := findIdx(ctx.edgeMembers[e], w); ok {
			return true
		}
	}
	return false
}

// accountShared sums the resident bytes of the context-owned arenas (the
// engine-owned items, views and member lists are accounted to the
// Prepared, not here).
func (ctx *runContext) accountShared() {
	b := int64(len(ctx.itemNode))*4 + int64(len(ctx.nodeDemand))*8
	b += rowBytes32(ctx.nodeItems) + rowBytes32(ctx.targets) + rowBytes32(ctx.nodeEdges)
	for _, r := range ctx.topology {
		b += int64(sliceHeaderBytes) + int64(len(r))*8
	}
	for _, vs := range ctx.local {
		b += int64(sliceHeaderBytes)
		for i := range vs {
			b += itemViewBytes + int64(len(vs[i].Edges)+len(vs[i].Critical))*4
		}
	}
	ctx.sharedBytes = b
}

func rowBytes32(rows [][]int32) int64 {
	b := int64(0)
	for _, r := range rows {
		b += int64(sliceHeaderBytes) + int64(len(r))*4
	}
	return b
}

const (
	sliceHeaderBytes = 24
	itemViewBytes    = 72 // ItemView struct: slot+pads, 2 float64, 2 slice headers
)
