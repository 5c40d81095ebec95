package simnet_test

import (
	"fmt"

	"treesched/internal/simnet"
)

type ping int

func (ping) Size() int { return 1 }

// pingNode sends one ping to its peer in round 0 and reports what it heard.
type pingNode struct {
	id, peer int
	heard    int
	round    int
}

func (n *pingNode) Round(round int, inbox []simnet.Message) []simnet.Message {
	n.round = round
	n.heard += len(inbox)
	if round == 0 {
		return []simnet.Message{{From: n.id, To: n.peer, Payload: ping(n.id)}}
	}
	return nil
}

func (n *pingNode) Done() bool { return n.round >= 1 }

// NextActiveRound asks for the next round until the node is done.
func (n *pingNode) NextActiveRound(now int) int {
	if n.Done() {
		return -1
	}
	return now + 1
}

// Example demonstrates the synchronous message-passing model: two linked
// processors exchange one message each; delivery takes exactly one round.
func Example() {
	a := &pingNode{id: 0, peer: 1}
	b := &pingNode{id: 1, peer: 0}
	nw, err := simnet.New([]simnet.Node{a, b}, [][]int{{1}, {0}})
	if err != nil {
		panic(err)
	}
	stats, err := nw.Run(10, simnet.BatchConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println("messages:", stats.Messages)
	fmt.Println("each node heard:", a.heard, b.heard)
	// Output:
	// messages: 2
	// each node heard: 1 1
}
