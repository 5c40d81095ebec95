package simnet

// Transport is the delivery seam of the simulator: it moves one round's
// committed outboxes into the next round's inboxes. The coordinator drives
// it strictly by round — Send enqueues a message for delivery after the next
// Flip, Inbox exposes the messages delivered to a node in the current round,
// and Flip advances the round boundary, recycling the buffers that were just
// read. Run routes every message through this interface, so a wire
// transport between processes can replace the in-process one without
// touching node code.
//
// The coordinator calls Send and Flip from a single goroutine; Inbox results
// are valid only until the next Flip. Delivery order per recipient is the
// Send order, which Run guarantees is (ascending sender, emission order) by
// committing outboxes in ascending node order.
type Transport interface {
	Send(m Message)
	Inbox(node int) []Message
	Flip()
}

// memTransport is the in-process transport: double-buffered per-recipient
// inbox slices reused across rounds. A dirty list records which recipients
// were touched, so a Flip clears O(touched) slices, not O(nodes) — on a
// million-node network where only one conflict component is awake, the
// delivery machinery costs only as much as the mail actually moving.
type memTransport struct {
	cur, nxt           [][]Message
	curDirty, nxtDirty []int
}

// NewMemTransport returns the in-process double-buffered transport for a
// network of the given size.
func NewMemTransport(nodes int) Transport {
	return &memTransport{
		cur: make([][]Message, nodes),
		nxt: make([][]Message, nodes),
	}
}

//schedvet:hot
func (t *memTransport) Send(m Message) {
	if len(t.nxt[m.To]) == 0 {
		t.nxtDirty = append(t.nxtDirty, m.To)
	}
	t.nxt[m.To] = append(t.nxt[m.To], m)
}

//schedvet:hot
func (t *memTransport) Inbox(node int) []Message { return t.cur[node] }

//schedvet:hot
func (t *memTransport) Flip() {
	for _, i := range t.curDirty {
		t.cur[i] = t.cur[i][:0]
	}
	t.curDirty = t.curDirty[:0]
	t.cur, t.nxt = t.nxt, t.cur
	t.curDirty, t.nxtDirty = t.nxtDirty, t.curDirty
}
