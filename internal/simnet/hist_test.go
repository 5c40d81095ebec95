package simnet

import (
	"testing"
)

func TestHistBucket(t *testing.T) {
	for _, tc := range []struct{ v, want int }{
		{-1, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2}, {8, 3},
		{1 << 19, 19}, {1<<19 + 5, 19},
		{1 << 25, StatsHistBuckets - 1}, // clamped overflow
	} {
		if got := HistBucket(tc.v); got != tc.want {
			t.Errorf("HistBucket(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// sizedPayload reports an arbitrary size, for exercising MsgSizeHist.
type sizedPayload int

func (p sizedPayload) Size() int { return int(p) }

// burstNode broadcasts `sends` messages of a given size in round 0 and goes
// quiet; paired with listeners it produces a known histogram shape.
type burstNode struct {
	id        int
	neighbors []int
	size      int
	round     int
}

func (n *burstNode) Round(round int, inbox []Message) []Message {
	n.round = round
	if round == 0 {
		return Broadcast(n.id, n.neighbors, sizedPayload(n.size))
	}
	return nil
}

func (n *burstNode) Done() bool { return n.round >= 1 }

// TestStatsHistogramsSum is the histogram bookkeeping invariant: every busy
// round lands in exactly one BusyNodeHist bucket and every delivered
// message in exactly one MsgSizeHist bucket, so the histograms sum to
// BusyRounds and Messages respectively.
func TestStatsHistogramsSum(t *testing.T) {
	// A star: in round 0 the hub broadcasts size-5 payloads to 6 leaves and
	// each leaf sends a size-1 payload to the hub.
	const leaves = 6
	topo := make([][]int, leaves+1)
	nodes := make([]Node, leaves+1)
	for i := 1; i <= leaves; i++ {
		topo[0] = append(topo[0], i)
		topo[i] = []int{0}
		nodes[i] = everyRound{&burstNode{id: i, neighbors: []int{0}, size: 1}}
	}
	nodes[0] = everyRound{&burstNode{id: 0, neighbors: topo[0], size: 5}}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(10, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var busySum, sizeSum int
	for i := 0; i < StatsHistBuckets; i++ {
		busySum += stats.BusyNodeHist[i]
		sizeSum += stats.MsgSizeHist[i]
	}
	if busySum != stats.BusyRounds {
		t.Errorf("ΣBusyNodeHist = %d, want BusyRounds = %d", busySum, stats.BusyRounds)
	}
	if sizeSum != stats.Messages {
		t.Errorf("ΣMsgSizeHist = %d, want Messages = %d", sizeSum, stats.Messages)
	}
	// The shape is fully determined: 6 size-5 messages (bucket 2) from the
	// hub and 6 size-1 messages (bucket 0) from the leaves.
	if stats.MsgSizeHist[2] != leaves || stats.MsgSizeHist[0] != leaves {
		t.Errorf("MsgSizeHist = %v, want %d in buckets 0 and 2", stats.MsgSizeHist, leaves)
	}
	// Round 0: all 7 nodes send. Round 1: all 7 receive. Both busy rounds
	// therefore count 7 busy nodes — bucket ⌊log₂ 7⌋ = 2.
	if stats.BusyNodeHist[HistBucket(leaves+1)] != 2 {
		t.Errorf("BusyNodeHist = %v, want both busy rounds in bucket %d", stats.BusyNodeHist, HistBucket(leaves+1))
	}
}
