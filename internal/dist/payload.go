package dist

// Message payloads, encoded over the shared interned layout: items travel as
// their global dense ids (int32), never as edge-key lists — every receiver
// can resolve an id against the read-only runContext, so no descriptor data
// needs to cross the wire after round 0. Sizes are reported in units of M,
// the number of bits needed to encode one demand (§5 "Distributed
// Implementation"): each entry is a constant number of words, so every
// payload's Size is its entry count and the largest message any processor
// ever sends is its own setup announcement (at most one entry per
// accessible network).
//
// Payload structs are pooled per sender and per kind: a draw buffer written
// in round r is read by its recipients in round r+1 and rewritten at the
// earliest in round r+2 (the next draw sub-round), so reuse never races a
// reader under the simulator's round barriers.

// setupPayload is broadcast once, in round 0, to every topology neighbor:
// the sender announces which items it owns. Conflict structure itself is
// read from the shared layout; the broadcast is retained for its honest
// round/byte accounting (one entry per owned item, as the paper's setup
// message costs).
type setupPayload struct {
	Items []int32 // the sender's item ids, ascending
}

func (p *setupPayload) Size() int { return len(p.Items) }

// drawEntry is one Luby priority draw for a live item.
type drawEntry struct {
	Item     int32
	Priority float64
}

// drawPayload carries the sender's draws for the live items that conflict
// with some item of the receiver. Receiving a draw for an item is also how
// a processor learns that item is still live this iteration.
type drawPayload struct {
	Draws []drawEntry
}

func (p *drawPayload) Size() int { return len(p.Draws) }

// raiseEntry announces that the sender raised an item by δ. Receivers
// resolve the item's critical set in the shared layout, so δ alone suffices
// to replay the β-update; the announcement also eliminates the receiver's
// conflicting items from the current step's elections.
type raiseEntry struct {
	Item  int32
	Delta float64
}

// raisePayload carries the sender's winner announcements of one Luby
// iteration.
type raisePayload struct {
	Raises []raiseEntry
}

func (p *raisePayload) Size() int { return len(p.Raises) }
