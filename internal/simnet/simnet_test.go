package simnet

import (
	"sync/atomic"
	"testing"
)

// intPayload is a trivial payload for tests.
type intPayload int

func (p intPayload) Size() int { return 1 }

// plainNode is a test program without a fast-forward schedule of its own.
type plainNode interface {
	Round(round int, inbox []Message) []Message
	Done() bool
}

// everyRound gives a plainNode the conservative schedule "active every
// round until Done": correct for every node, never sparse.
type everyRound struct{ plainNode }

func (w everyRound) NextActiveRound(now int) int {
	if w.Done() {
		return -1
	}
	return now + 1
}

// echoNode sends its id to all neighbors in round 0 and records what it
// hears; done after round 1.
type echoNode struct {
	id        int
	neighbors []int
	heard     []int
	round     int
}

func (n *echoNode) Round(round int, inbox []Message) []Message {
	n.round = round
	for _, m := range inbox {
		n.heard = append(n.heard, int(m.Payload.(intPayload)))
	}
	if round == 0 {
		return Broadcast(n.id, n.neighbors, intPayload(n.id))
	}
	return nil
}

func (n *echoNode) Done() bool { return n.round >= 1 }

// violatorNode tries to message a non-neighbor.
type violatorNode struct{ sent bool }

func (n *violatorNode) Round(round int, inbox []Message) []Message {
	if !n.sent {
		n.sent = true
		return []Message{{From: 0, To: 1, Payload: intPayload(0)}}
	}
	return nil
}
func (n *violatorNode) Done() bool { return n.sent }

type idleNode struct{ rounds int }

func (n *idleNode) Round(round int, inbox []Message) []Message { n.rounds++; return nil }
func (n *idleNode) Done() bool                                 { return true }

type neverDone struct{}

func (n *neverDone) Round(round int, inbox []Message) []Message { return nil }
func (n *neverDone) Done() bool                                 { return false }

func TestNewValidation(t *testing.T) {
	nodes := []Node{everyRound{&idleNode{}}}
	if _, err := New(nodes, nil); err == nil {
		t.Error("mismatched topology rows accepted")
	}
	if _, err := New(nodes, [][]int{{0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New(nodes, [][]int{{5}}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

// chainNode forwards a token down a path; node i sends to i+1 when it
// receives the token (node 0 starts with it).
type chainNode struct {
	id, n    int
	received atomic.Bool
	lastSeen int
}

func (c *chainNode) Round(round int, inbox []Message) []Message {
	c.lastSeen = round
	if c.id == 0 && round == 0 {
		c.received.Store(true)
		return []Message{{From: 0, To: 1, Payload: intPayload(0)}}
	}
	for range inbox {
		c.received.Store(true)
		if c.id+1 < c.n {
			return []Message{{From: c.id, To: c.id + 1, Payload: intPayload(c.id)}}
		}
	}
	return nil
}

func (c *chainNode) Done() bool { return c.received.Load() }

func TestChainTakesLinearRounds(t *testing.T) {
	// Message latency is one round per hop: the token reaches node n-1 at
	// round n-1, demonstrating honest synchronous semantics.
	n := 10
	nodes := make([]Node, n)
	topo := make([][]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = everyRound{&chainNode{id: i, n: n}}
		if i > 0 {
			topo[i] = append(topo[i], i-1)
		}
		if i < n-1 {
			topo[i] = append(topo[i], i+1)
		}
	}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(50, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < n {
		t.Errorf("rounds = %d, want ≥ %d (one per hop)", stats.Rounds, n)
	}
	if stats.Messages != n-1 {
		t.Errorf("messages = %d, want %d", stats.Messages, n-1)
	}
	// Sends happen in rounds 0..n-2 and the last delivery lands in round
	// n-1, so exactly n rounds are busy.
	if stats.BusyRounds != n {
		t.Errorf("busy rounds = %d, want %d", stats.BusyRounds, n)
	}
}

func TestStatsSizes(t *testing.T) {
	topo := [][]int{{1}, {0}}
	a := &echoNode{id: 0, neighbors: []int{1}}
	b := &echoNode{id: 1, neighbors: []int{0}}
	nw, err := New([]Node{everyRound{a}, everyRound{b}}, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(10, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSize != 2 || stats.MaxMessageSize != 1 {
		t.Errorf("sizes = %+v, want total 2 max 1", stats)
	}
}

// panicNode blows up in its second round.
type panicNode struct{ rounds int }

func (p *panicNode) Round(round int, inbox []Message) []Message {
	p.rounds++
	if p.rounds >= 2 {
		panic("injected fault")
	}
	return nil
}
func (p *panicNode) Done() bool { return false }
