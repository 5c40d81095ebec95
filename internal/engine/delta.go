package engine

import (
	"fmt"
	"slices"
)

// This file implements the incremental re-solve path: a Prepared item set
// updated in place as demands arrive and depart on an unchanged network,
// paying for the delta instead of a rebuild.
//
// # What a delta may touch
//
// A Delta removes items by id and appends new ones; the network (the edge
// universe the paths draw from) is assumed fixed. Apply keeps every
// invariant Prepare established:
//
//   - items stay densely indexed (ID = position): survivors stranded past
//     the new length move down into freed slots, the remaining freed slots
//     take the additions, and the rest appends. A displaced survivor is
//     treated exactly like a removal at its old id plus an arrival at its
//     new one, which keeps every patched member list sorted by
//     construction (below);
//   - the dense layout keeps one demand slot per live demand: a demand
//     whose last item departs gives its slot back to the index, and the
//     next new demand takes it, so the slots never outnumber the most
//     live demands a delta has seen: those before it plus its arrivals.
//     Removed items leave their edge indices behind, at most one per edge
//     of the fixed network. A slot or index no view references holds zero
//     in every fresh per-run assignment, so it cannot influence any raise,
//     satisfaction test, or the dual objective (Value is an exact sum that
//     skips zeros, so no numbering of the slots reaches its bits), and a
//     shard layout is numbered from its items' order. This is what makes
//     incremental solve results bitwise identical to a from-scratch
//     Prepare over the same item slice, even though the slot numbering
//     differs;
//   - the group member lists — the whole conflict structure — are patched,
//     not rebuilt. Only the groups of departed (removed or displaced) and
//     arriving items change: they filter out departed ids (which preserves
//     their sort order) and merge in the arrivals (whose new ids are
//     assigned in ascending order), so no list is ever re-sorted. Untouched
//     groups are reused verbatim;
//   - the lazily-built shard decomposition is marked stale, together with
//     the components the churn reached: the shard of every departed item,
//     and of every member of a group an arrival joined. The members of a
//     group a departure left shared a component with the departed item,
//     so these are exactly the components whose conflict structure
//     changed. The next ensureShards re-traverses from their members and
//     the arrivals only, and reuses the relabeled shard of every component
//     the churn never reached;
//   - the plan statistics (planStats, engine.go) count every departed item
//     out and every arriving one in. When the departures took the last
//     holder of a profit or height extreme, no count can tell the new
//     extreme, and Apply gathers the statistics again over every item;
//   - once a caller took an item view (itemsview.go), every item Apply
//     writes is logged for the views to come.
//
// Apply keeps the groups and items it touches as lists, so its work is
// the size of the delta and of the member lists it patches, never the
// number of items or groups, but for that one gather after an extreme's
// departure.
//
// Apply mutates the Prepared (including the item slice it was constructed
// over) and must not overlap a Solve or another Apply on the same value.
// Between mutations the Prepared remains safe for concurrent runs.

// Delta describes demand-instance churn on an unchanged network: items to
// remove, by their current ids, and items to add. Apply stores a copy of
// each added item with its ID field set to the item's position; the
// caller's slice is left as it was. The remaining fields must satisfy the
// same invariants Solve validates (group ≥ 1, non-empty path and critical
// set, positive profit, height in (0,1]).
type Delta struct {
	Remove []int
	Add    []Item
}

// applyScratch holds Apply's bookkeeping, kept on the Prepared and reused
// across Applies (which never overlap, per the contract above). Its marks
// are all clear between Applies — drop all false, the group states all
// untouched — because Apply resets exactly the entries it set, from its
// lists. Steady churn rounds then allocate only what the post-churn state
// retains (member-list growth, the arrivals' views) and touch no entry the
// delta did not reach.
type applyScratch struct {
	drop      []bool  // ids leaving the member lists: removals, movers' old ids
	dState    []int32 // per demand slot: untouched, filtered, or the arrivals' bound
	eState    []int32 // per edge index, likewise
	changedD  []int32 // demand slots whose member lists change
	changedE  []int32 // edge indices whose member lists change
	appendedD []int32 // demand slots arrivals joined, a subset of changedD
	appendedE []int32
	movers    []int
	free      []int
	tail      []int32
}

// Group states during an Apply; a state ≥ 0 is the length of the group's
// filtered list, where its arrivals start.
const (
	untouched = -1 // the list does not change
	filtered  = -2 // the list loses members and has no arrivals yet
)

// checkDelta validates a delta against the current item count and marks
// each removed id in the scratch — the cold prologue of Apply, kept out
// of the hot body so the formatting error paths stay off the hot path. On
// error it clears the marks it set.
func checkDelta(d Delta, n int, removed []bool) error {
	marked := 0
	err := func() error {
		for _, id := range d.Remove {
			if id < 0 || id >= n {
				return fmt.Errorf("engine: delta removes unknown item %d (have %d)", id, n)
			}
			if removed[id] {
				return fmt.Errorf("engine: delta removes item %d twice", id)
			}
			removed[id] = true
			marked++
		}
		for i := range d.Add {
			it := &d.Add[i]
			if it.Group < 1 {
				return fmt.Errorf("engine: delta adds item %d with group %d < 1", i, it.Group)
			}
			if len(it.Edges) == 0 || len(it.Critical) == 0 {
				return fmt.Errorf("engine: delta adds item %d with empty path or critical set", i)
			}
			if !(it.Profit > 0) {
				return fmt.Errorf("engine: delta adds item %d with profit %v", i, it.Profit)
			}
			if !(it.Height > 0) || it.Height > 1 {
				return fmt.Errorf("engine: delta adds item %d with height %v", i, it.Height)
			}
		}
		return nil
	}()
	if err != nil {
		for _, r := range d.Remove[:marked] {
			removed[r] = false
		}
	}
	return err
}

// Apply updates the prepared state to the post-churn item set. On error the
// Prepared is unchanged. The resulting state is equivalent to Prepare over
// the resulting Items() slice: identical member lists (up to the numbering
// of slots), identical components, and bitwise-identical solve results at
// every worker count.
//
//schedvet:hot
func (p *Prepared) Apply(d Delta) error {
	if p.applyScr == nil {
		p.applyScr = new(applyScratch)
	}
	scr := p.applyScr
	n := len(p.items)
	drop := extend(&scr.drop, n, false)
	if err := checkDelta(d, n, drop); err != nil {
		return err
	}
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseApply)
	}
	p.shardMu.Lock()
	// Keep the component bookkeeping while the last shard build sharded.
	track := p.shards != nil
	newN := n - len(d.Remove) + len(d.Add)
	lay := p.lay

	// Survivors stranded past the new length move down into freed slots
	// (ascending on both sides, so mover new ids ascend); the remaining
	// free slots — including the appended range when the set grows — take
	// the additions in order, so len(free) - len(movers) == len(d.Add)
	// always, and every arriving id (mover or addition) exceeds no later
	// one. drop marks the ids that disappear from member lists: removals
	// and the movers' old ids.
	movers, free := scr.movers[:0], scr.free[:0]
	for i := newN; i < n; i++ {
		if !drop[i] {
			movers = append(movers, i)
		}
	}
	for _, r := range d.Remove {
		if r < newN {
			free = append(free, r)
		}
	}
	slices.Sort(free)
	for i := n; i < newN; i++ {
		free = append(free, i)
	}
	scr.movers, scr.free = movers, free
	for _, m := range movers {
		drop[m] = true
	}

	// Mark the groups whose member lists lose members — those of the
	// removed and displaced items — and the components those items leave.
	dState := extend(&scr.dState, lay.demands, untouched)
	eState := extend(&scr.eState, lay.edges, untouched)
	changedD, changedE := scr.changedD[:0], scr.changedE[:0]
	depart := func(id int) {
		p.stats.remove(&p.items[id], id)
		v := &lay.views[id]
		if dState[v.Slot] == untouched {
			dState[v.Slot] = filtered
			changedD = append(changedD, v.Slot)
		}
		for _, e := range v.Edges {
			if eState[e] == untouched {
				eState[e] = filtered
				changedE = append(changedE, e)
			}
		}
		if track {
			p.markStale(p.compOf[id])
		}
	}
	for _, r := range d.Remove {
		depart(r)
	}
	for _, m := range movers {
		depart(m)
	}

	// Compact items and views, then intern the additions.
	for i, m := range movers {
		h := free[i]
		p.items[h] = p.items[m]
		p.items[h].ID = h
		p.logWrite(h)
		lay.views[h] = lay.views[m]
	}
	if newN <= n {
		p.items = p.items[:newN]
		lay.views = lay.views[:newN]
	}
	addSlots := free[len(movers):]
	total := 0
	for i := range d.Add {
		total += len(d.Add[i].Edges) + len(d.Add[i].Critical)
	}
	slab := make([]int32, total) // the additions' views' index lists
	for i := range d.Add {
		it := d.Add[i]
		id := addSlots[i]
		it.ID = id
		if id < len(p.items) {
			p.items[id] = it
		} else { // addSlots ascend, so appends arrive in position order
			p.items = append(p.items, it)
			lay.views = append(lay.views, ItemView{})
		}
		p.logWrite(id)
		k := len(it.Edges) + len(it.Critical)
		lay.views[id] = internItem(lay.ix, &p.items[id], slab[:k:k])
		slab = slab[k:]
	}
	lay.sync()
	p.added += len(d.Add)
	if track {
		// Every id in free holds an arrival, in no component yet.
		compOf := p.compOf[:min(n, newN)]
		for len(compOf) < newN {
			compOf = append(compOf, nil)
		}
		for _, id := range free {
			compOf[id] = nil
			p.arrivals = append(p.arrivals, int32(id))
		}
		p.compOf = compOf
	}

	// Patch the member lists in three steps, none of which disturbs their
	// ascending order: changed groups filter out departed ids in place;
	// grown groups appear empty; every arriving id — mover new ids first
	// (ascending), then addition ids (ascending, all larger) — appends to
	// its groups, and one backward merge per appended group folds the
	// sorted tail back in. No member list is ever sorted. entries counts
	// the entries the filters keep and the arrivals append.
	entries := 0
	for _, s := range changedD {
		p.demandMembers[s] = filterDropped(p.demandMembers[s], drop)
		entries += len(p.demandMembers[s])
	}
	for _, e := range changedE {
		p.edgeMembers[e] = filterDropped(p.edgeMembers[e], drop)
		entries += len(p.edgeMembers[e])
	}
	for len(p.demandMembers) < lay.demands {
		p.demandMembers = append(p.demandMembers, nil)
	}
	for len(p.edgeMembers) < lay.edges {
		p.edgeMembers = append(p.edgeMembers, nil)
	}
	dState = extend(&scr.dState, lay.demands, untouched)
	eState = extend(&scr.eState, lay.edges, untouched)
	appendedD, appendedE := scr.appendedD[:0], scr.appendedE[:0]
	arrive := func(id int) {
		p.stats.add(&p.items[id], id)
		v := &lay.views[id]
		entries += 1 + len(v.Edges)
		if st := dState[v.Slot]; st < 0 {
			if st == untouched {
				changedD = append(changedD, v.Slot)
			}
			dState[v.Slot] = int32(len(p.demandMembers[v.Slot]))
			appendedD = append(appendedD, v.Slot)
		}
		p.demandMembers[v.Slot] = append(p.demandMembers[v.Slot], int32(id))
		for _, e := range v.Edges {
			if st := eState[e]; st < 0 {
				if st == untouched {
					changedE = append(changedE, e)
				}
				eState[e] = int32(len(p.edgeMembers[e]))
				appendedE = append(appendedE, e)
			}
			p.edgeMembers[e] = append(p.edgeMembers[e], int32(id))
		}
	}
	for _, id := range free {
		arrive(id)
	}
	tail := scr.tail // scratch right run for the backward merges
	for _, s := range appendedD {
		tail = mergeTail(p.demandMembers[s], int(dState[s]), tail)
	}
	for _, e := range appendedE {
		tail = mergeTail(p.edgeMembers[e], int(eState[e]), tail)
	}

	// The components a group's arrivals join are stale too. (The other
	// members of a group that only lost members shared a component with
	// the departed item, which is marked already.)
	if track {
		for _, s := range appendedD {
			p.markStaleMembers(p.demandMembers[s])
		}
		for _, e := range appendedE {
			p.markStaleMembers(p.edgeMembers[e])
		}
	}
	if p.shardsBuilt {
		p.shardsStale = true
	}
	p.shardMu.Unlock()
	if p.stats.stale() {
		p.stats.gather(p.items)
		if rec != nil {
			rec.Count(CounterPlanItems, int64(len(p.items)))
		}
	}

	// Clear the marks for the next Apply, and give back every demand slot
	// whose member list the churn emptied. Only now, with the arrivals
	// merged: a mover leaves its demand's list before it comes back under
	// its new id, so an earlier release could give a live demand's slot to
	// an arrival.
	for _, s := range changedD {
		dState[s] = untouched
		if len(p.demandMembers[s]) == 0 {
			lay.ix.ReleaseDemand(s)
		}
	}
	for _, e := range changedE {
		eState[e] = untouched
	}
	for _, r := range d.Remove {
		drop[r] = false
	}
	for _, m := range movers {
		drop[m] = false
	}
	scr.changedD, scr.changedE, scr.appendedD, scr.appendedE, scr.tail = changedD, changedE, appendedD, appendedE, tail
	if rec != nil {
		rec.Count(CounterApplyGroups, int64(len(changedD)+len(changedE)))
		rec.Count(CounterMemberEntries, int64(entries))
		rec.EndSpan(PhaseApply, tok)
	}
	return nil
}

// markStale marks sh, the shard of a component a delta reached; nil (an
// item that arrived since the last build) marks nothing. Callers hold
// shardMu.
func (p *Prepared) markStale(sh *preShard) {
	if sh != nil && !sh.stale {
		sh.stale = true
		p.staleShards = append(p.staleShards, sh)
	}
}

// markStaleMembers marks the shards of the members of one group.
func (p *Prepared) markStaleMembers(members []int32) {
	for _, m := range members {
		p.markStale(p.compOf[m])
	}
}

// filterDropped compacts a member list in place, removing dropped ids.
// Surviving ids are unchanged, so the list stays ascending.
func filterDropped(list []int32, drop []bool) []int32 {
	k := 0
	for _, v := range list {
		if !drop[v] {
			list[k] = v
			k++
		}
	}
	return list[:k]
}

// mergeTail restores a member list that is two ascending runs — the
// filtered prefix list[:bound] and the appended arrivals list[bound:] —
// into one, merging backward through the scratch buffer (returned for
// reuse). Writes at position t never reach unmerged prefix entries: t is
// always at least i+1 while the scratch holds the right run.
func mergeTail(list []int32, bound int, scratch []int32) []int32 {
	scratch = append(scratch[:0], list[bound:]...)
	i, j := bound-1, len(scratch)-1
	for t := len(list) - 1; j >= 0; t-- {
		if i >= 0 && list[i] > scratch[j] {
			list[t] = list[i]
			i--
		} else {
			list[t] = scratch[j]
			j--
		}
	}
	return scratch
}
