// Package simnet simulates the synchronous message-passing model of
// distributed computing the paper assumes (§1): computation proceeds in
// rounds; in each round every processor receives the messages sent to it in
// the previous round, updates local state, and emits messages to processors
// it is directly connected to (in this problem: processors sharing an
// accessible network).
//
// Network.Run (batched.go) is the one round loop. It buckets delivery per
// round and steps only the nodes that have mail or a spontaneous action,
// which is what makes million-node networks simulable. Delivery is
// deterministic: each recipient's inbox is appended per sender in ascending
// sender order, which IS the (sender, emission order) delivery order — no
// sort needed. Messages move through an explicit Transport seam
// (transport.go). The simulator counts rounds, messages and message sizes;
// local computation is free, exactly as in the model.
package simnet

import (
	"fmt"
	"math/bits"
	"slices"
)

// Payload is the content of a message. Size reports the abstract message
// size in units of M, the number of bits needed to encode one demand
// (§5 "Distributed Implementation" bounds every message by O(M)).
type Payload interface {
	Size() int
}

// Message is one message in flight.
type Message struct {
	From, To int
	Payload  Payload
}

// Node is a processor. Round is called with the messages delivered this
// round and returns the messages to send (delivered next round). Done
// reports local termination; the network stops when every node is done and
// no messages are in flight.
//
// NextActiveRound returns the earliest future round (> now) at which the
// node would act spontaneously — send without first receiving — or -1 if it
// will never act again unless a message arrives. Run steps a node only in
// rounds where it has mail or its reported round has arrived, and skips
// rounds in which no node would act, counting them in Stats.Rounds and
// Stats.SkippedRounds without executing them. Skipping is a pure
// simulation acceleration: idle processors neither send nor mutate shared
// state, so the synchronous schedule is unchanged. Run relies on the answer
// being stable while the node is idle: NextActiveRound must be a pure
// function of the node's frozen state, so that the value recorded when the
// node was last stepped stays valid until mail or its own round arrives.
// For the same reason a node may only flip Done in a round in which it is
// stepped — true of any node whose Done transition is part of an action.
//
// Run calls a Node's methods from worker-pool lanes, one node at a time, so
// nodes must not share mutable state. The inbox slice and its payloads are
// valid only for the duration of the Round call — delivery buffers are
// pooled across rounds.
type Node interface {
	Round(round int, inbox []Message) (outbox []Message)
	Done() bool
	NextActiveRound(now int) int
}

// StatsHistBuckets is the size of Stats' power-of-two histograms: bucket i
// counts observations v with 2^i ≤ v < 2^(i+1) (bucket 0 also takes v ≤ 1;
// the last bucket is unbounded above), so 20 buckets cover 1 through ~1M —
// the full range of the million-node runtime.
const StatsHistBuckets = 20

// Stats aggregates the run's communication costs. The histograms are plain
// fixed-size counters — deterministic functions of the executed schedule,
// like every other field — and the dist equivalence suites pin the whole
// struct against checked-in goldens.
type Stats struct {
	Rounds         int // synchronous rounds elapsed (including fast-forwarded idle rounds)
	SkippedRounds  int // idle rounds fast-forwarded rather than executed
	BusyRounds     int // rounds in which at least one message was delivered or sent
	Messages       int // total messages delivered
	TotalSize      int // sum of payload sizes (units of M)
	MaxMessageSize int // largest single payload

	// BusyNodeHist[i] counts busy rounds whose busy-node count — processors
	// that received or sent at least one message that round — fell in
	// power-of-two bucket i; its entries sum to BusyRounds. The shape
	// distinguishes a schedule trickling through a few hot processors from
	// genuinely wide rounds.
	BusyNodeHist [StatsHistBuckets]int
	// MsgSizeHist[i] counts delivered messages whose payload size (units of
	// M) fell in bucket i; its entries sum to Messages.
	MsgSizeHist [StatsHistBuckets]int
}

// HistBucket returns the power-of-two bucket of v under the Stats
// histogram scheme: floor(log2(v)) clamped to [0, StatsHistBuckets).
//
//schedvet:hot
func HistBucket(v int) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len(uint(v)) - 1
	if b >= StatsHistBuckets {
		b = StatsHistBuckets - 1
	}
	return b
}

// Network couples nodes with a communication topology.
type Network struct {
	nodes   []Node
	nbrs    [][]int // topology: sorted neighbor ids per node
	started bool
}

// New builds a network of nodes with the given topology (adjacency lists;
// symmetric is expected but not required). Nodes may only send to their
// topology neighbors; violations fail the run. The rows are copied and
// sorted so membership tests run by binary search — no per-node maps.
func New(nodes []Node, topology [][]int) (*Network, error) {
	if len(topology) != len(nodes) {
		return nil, fmt.Errorf("simnet: %d nodes but %d topology rows", len(nodes), len(topology))
	}
	nw := &Network{nodes: nodes, nbrs: make([][]int, len(nodes))}
	for i, nbrs := range topology {
		for _, j := range nbrs {
			if j < 0 || j >= len(nodes) {
				return nil, fmt.Errorf("simnet: node %d lists invalid neighbor %d", i, j)
			}
			if j == i {
				return nil, fmt.Errorf("simnet: node %d lists itself as neighbor", i)
			}
		}
		row := slices.Clone(nbrs)
		slices.Sort(row)
		nw.nbrs[i] = row
	}
	return nw, nil
}

// allowedTo reports whether i may send to j: binary search of i's sorted
// neighbor row.
//
//schedvet:hot
func (nw *Network) allowedTo(i, j int) bool {
	row := nw.nbrs[i]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == j
}

// Broadcast builds messages from one sender to each listed neighbor with a
// shared payload.
func Broadcast(from int, neighbors []int, p Payload) []Message {
	out := make([]Message, 0, len(neighbors))
	for _, to := range neighbors {
		out = append(out, Message{From: from, To: to, Payload: p})
	}
	return out
}
