package engine

import "slices"

// This file implements the item views a Prepared publishes: a caller that
// must keep the item set a solve ran over (a serve snapshot) takes an
// ItemsView instead of copying the set each round.
//
// Once a view is asked for, the Prepared keeps an immutable base copy of
// its items and an append-only log of every (id, item) Apply writes after
// it: the ids of Apply's free list, movers' new slots first, then the
// additions. A view is the base, a capped prefix of the log and the item
// count, so taking one copies nothing; the set it stood for is the base,
// cut or grown to the count, with the logged writes laid over it in order.
// Neither the base nor a logged entry is written again, so a view stays
// valid, and readable from any goroutine, however many Applies follow.
//
// A round's writes land in scattered slots, so the log keeps the item
// slice flat instead of splitting it into copy-on-write chunks. When the
// log holds more writes than there are items, the next view takes a fresh
// base: copying then costs O(1) amortized per written item, and a view's
// memory stays O(items).

// ItemsView is an immutable view of a Prepared's item set as it stood when
// ItemsView was called. The zero value is an empty set.
type ItemsView struct {
	base []Item
	log  []loggedItem
	n    int
}

// loggedItem is one item Apply wrote: the item now at position id.
type loggedItem struct {
	id   int
	item Item
}

// itemLog is the Prepared's side of its views: the base they share and
// the log Apply appends to, once on.
type itemLog struct {
	on   bool
	base []Item
	log  []loggedItem
}

// ItemsView returns a view of the current item set in O(1). The first call
// copies the items into the base the views share, and so does the first
// call after the log outgrows the item set. It must not overlap an Apply
// or another ItemsView on the same Prepared.
func (p *Prepared) ItemsView() ItemsView {
	l := &p.published
	if !l.on || len(l.log) > len(p.items) {
		// A fresh log, too: earlier views still read the old one.
		l.on, l.base, l.log = true, slices.Clone(p.items), nil
	}
	return ItemsView{base: l.base, log: l.log[:len(l.log):len(l.log)], n: len(p.items)}
}

// logWrite logs the item Apply just wrote at id, while views are on.
func (p *Prepared) logWrite(id int) {
	if l := &p.published; l.on {
		l.log = append(l.log, loggedItem{id, p.items[id]})
	}
}

// Items materializes the view into a fresh slice the caller owns, in
// O(items + logged writes). Its items share their Edges and Critical
// slices with the Prepared's, which nothing writes after construction.
func (v ItemsView) Items() []Item {
	out := make([]Item, v.n)
	copy(out, v.base)
	for i := range v.log {
		if w := &v.log[i]; w.id < v.n {
			out[w.id] = w.item
		}
	}
	return out
}
