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
//   - the dense layout extends monotonically — removed items leave their
//     interned demand slots and edge indices behind. Stale slots hold zero
//     in every fresh per-run assignment and are referenced by no view, so
//     they cannot influence any raise, satisfaction test, or the dual
//     objective (Value is an exact sum that skips zeros, so no numbering of
//     the slots reaches its bits). This is what makes incremental solve
//     results bitwise identical to a from-scratch Prepare over the same item
//     slice, even though the slot numbering differs;
//   - the group member lists — the whole conflict structure — are patched,
//     not rebuilt. Only the groups of departed (removed or displaced) and
//     arriving items change: they filter out departed ids (which preserves
//     their sort order) and merge in the arrivals (whose new ids are
//     assigned in ascending order), so no list is ever re-sorted. Untouched
//     groups are reused verbatim;
//   - the lazily-built shard decomposition is marked stale, together with
//     the items the churn reached: every member of a group whose list
//     changed. Those are exactly the items whose conflict neighborhood
//     changed, plus the arrivals themselves. The next ensureShards
//     recomputes the components and reuses the relabeled shard of every
//     component the churn never reached.
//
// Apply mutates the Prepared (including the item slice it was constructed
// over) and must not overlap a Solve or another Apply on the same value. Between mutations the Prepared remains safe for concurrent runs.

// Delta describes demand-instance churn on an unchanged network: items to
// remove, by their current ids, and items to add. Apply assigns the ID
// field of every added item; the remaining fields must satisfy the same
// invariants Solve validates (group ≥ 1, non-empty path and critical set,
// positive profit, height in (0,1]).
type Delta struct {
	Remove []int
	Add    []Item
}

// applyScratch holds Apply's transient O(n) bookkeeping, kept on the
// Prepared and reused across Applies (which never overlap, per the contract
// above). Steady churn rounds then allocate only what the post-churn state
// retains — member-list growth, the touched mark — instead of a handful of
// set-sized marker arrays per round.
type applyScratch struct {
	removed   []bool
	dTouched  []bool
	eTouched  []bool
	dBound    []int32
	eBound    []int32
	movers    []int
	free      []int
	appendedD []int32
	appendedE []int32
	tail      []int32
}

// scratch reslices *buf to length n, allocating only when capacity is
// short. reset clears the reslice; callers that overwrite every entry
// anyway (the -1-filled bound arrays) skip it.
func scratch[T any](buf *[]T, n int, reset bool) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	s := (*buf)[:n]
	if reset {
		clear(s)
	}
	return s
}

// checkDelta validates a delta against the current item count and marks
// each removed id in the scratch — the cold prologue of Apply, kept out
// of the hot body so the formatting error paths stay off the hot path.
func checkDelta(d Delta, n int, removed []bool) error {
	for _, id := range d.Remove {
		if id < 0 || id >= n {
			return fmt.Errorf("engine: delta removes unknown item %d (have %d)", id, n)
		}
		if removed[id] {
			return fmt.Errorf("engine: delta removes item %d twice", id)
		}
		removed[id] = true
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
}

// Apply updates the prepared state to the post-churn item set. On error the
// Prepared is unchanged. The resulting state is equivalent to Prepare over
// the resulting Items() slice: identical member lists (up to the numbering
// of stale slots), identical components, and bitwise-identical solve
// results at every worker count.
//
//schedvet:hot
func (p *Prepared) Apply(d Delta) error {
	if p.applyScr == nil {
		p.applyScr = new(applyScratch)
	}
	scr := p.applyScr
	n := len(p.items)
	removed := scratch(&scr.removed, n, true)
	if err := checkDelta(d, n, removed); err != nil {
		return err
	}
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseApply)
	}
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
		if !removed[i] {
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
	drop := removed
	for _, m := range movers {
		drop[m] = true
	}

	// Mark the groups whose member lists change: those of the removed and
	// displaced items. The group universe may grow when additions intern
	// new demands or edges; grown groups start empty.
	oldD, oldE := lay.ix.NumDemands(), lay.ix.NumEdges()
	dTouched := scratch(&scr.dTouched, oldD, true)
	eTouched := scratch(&scr.eTouched, oldE, true)
	markGroups := func(v *ItemView) {
		dTouched[v.Slot] = true
		for _, e := range v.Edges {
			eTouched[e] = true
		}
	}
	for _, r := range d.Remove {
		markGroups(&lay.views[r])
	}
	for _, m := range movers {
		markGroups(&lay.views[m])
	}

	// Compact items, views and owner slots, then intern the additions.
	for i, m := range movers {
		h := free[i]
		p.items[h] = p.items[m]
		p.items[h].ID = h
		lay.views[h] = lay.views[m]
		lay.ownerSlot[h] = lay.ownerSlot[m]
	}
	if newN <= n {
		p.items = p.items[:newN]
		lay.views = lay.views[:newN]
		lay.ownerSlot = lay.ownerSlot[:newN]
	}
	addSlots := free[len(movers):]
	for i := range d.Add {
		it := d.Add[i]
		id := addSlots[i]
		it.ID = id
		if id < len(p.items) {
			p.items[id] = it
		} else { // addSlots ascend, so appends arrive in position order
			p.items = append(p.items, it)
			lay.views = append(lay.views, ItemView{})
			lay.ownerSlot = append(lay.ownerSlot, 0)
		}
		lay.views[id] = internItem(lay.ix, &p.items[id], make([]int32, len(it.Edges)+len(it.Critical)))
		lay.ownerSlot[id] = lay.owners.Intern(it.Owner)
	}

	// Patch the member lists in three steps, none of which disturbs their
	// ascending order: touched groups filter out departed ids in place;
	// grown groups appear empty; every arriving id — mover new ids first
	// (ascending), then addition ids (ascending, all larger) — appends to
	// its groups, and one backward merge per appended group folds the
	// sorted tail back in. No member list is ever sorted.
	for s := range dTouched {
		if dTouched[s] {
			p.demandMembers[s] = filterDropped(p.demandMembers[s], drop)
		}
	}
	for e := range eTouched {
		if eTouched[e] {
			p.edgeMembers[e] = filterDropped(p.edgeMembers[e], drop)
		}
	}
	for len(p.demandMembers) < lay.ix.NumDemands() {
		p.demandMembers = append(p.demandMembers, nil)
	}
	for len(p.edgeMembers) < lay.ix.NumEdges() {
		p.edgeMembers = append(p.edgeMembers, nil)
	}
	appendedD, appendedE := scr.appendedD[:0], scr.appendedE[:0]
	dBound := scratch(&scr.dBound, len(p.demandMembers), false)
	eBound := scratch(&scr.eBound, len(p.edgeMembers), false)
	for i := range dBound {
		dBound[i] = -1
	}
	for i := range eBound {
		eBound[i] = -1
	}
	arrive := func(id int) {
		v := &lay.views[id]
		if dBound[v.Slot] < 0 {
			dBound[v.Slot] = int32(len(p.demandMembers[v.Slot]))
			appendedD = append(appendedD, v.Slot)
		}
		p.demandMembers[v.Slot] = append(p.demandMembers[v.Slot], int32(id))
		for _, e := range v.Edges {
			if eBound[e] < 0 {
				eBound[e] = int32(len(p.edgeMembers[e]))
				appendedE = append(appendedE, e)
			}
			p.edgeMembers[e] = append(p.edgeMembers[e], int32(id))
		}
	}
	for _, f := range free[:len(movers)] {
		arrive(f)
	}
	for _, id := range addSlots {
		arrive(id)
	}
	tail := scr.tail // scratch right run for the backward merges
	for _, s := range appendedD {
		tail = mergeTail(p.demandMembers[s], int(dBound[s]), tail)
	}
	for _, e := range appendedE {
		tail = mergeTail(p.edgeMembers[e], int(eBound[e]), tail)
	}
	scr.appendedD, scr.appendedE, scr.tail = appendedD, appendedE, tail

	// Invalidate the lazy shard decomposition, remembering which items the
	// churn reached so the next ensureShards can keep untouched shards: the
	// members of every group whose list changed. Arrivals are members of
	// the groups they joined. Marks carried over from earlier Applies keep
	// their ids: every id that moved or departed below newN now holds an
	// arrival, which is marked anyway.
	p.shardMu.Lock()
	if p.shardsBuilt {
		p.shardsStale = true
		nt := make([]bool, newN)
		copy(nt, p.touched)
		markMembers(nt, p.demandMembers, dTouched)
		markMembers(nt, p.edgeMembers, eTouched)
		for _, s := range appendedD {
			for _, m := range p.demandMembers[s] {
				nt[m] = true
			}
		}
		for _, e := range appendedE {
			for _, m := range p.edgeMembers[e] {
				nt[m] = true
			}
		}
		p.touched = nt
	}
	p.shardMu.Unlock()
	if rec != nil {
		rec.EndSpan(PhaseApply, tok)
	}
	return nil
}

// markMembers marks every member of the groups flagged in changed.
func markMembers(marks []bool, members [][]int32, changed []bool) {
	for g, c := range changed {
		if c {
			for _, m := range members[g] {
				marks[m] = true
			}
		}
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
