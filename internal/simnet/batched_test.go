package simnet

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestBatchedRoundTripDelivery(t *testing.T) {
	// Triangle topology: Run must deliver each inbox in ascending sender
	// order without any sorting (ascending-sender append order IS delivery
	// order).
	topo := [][]int{{1, 2}, {0, 2}, {0, 1}}
	nodes := make([]Node, 3)
	echoes := make([]*echoNode, 3)
	for i := range nodes {
		echoes[i] = &echoNode{id: i, neighbors: topo[i]}
		nodes[i] = everyRound{echoes[i]}
	}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(10, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 6 {
		t.Errorf("messages = %d, want 6", stats.Messages)
	}
	for i, e := range echoes {
		if len(e.heard) != 2 {
			t.Errorf("node %d heard %v, want 2 messages", i, e.heard)
		}
		for j := 1; j < len(e.heard); j++ {
			if e.heard[j] < e.heard[j-1] {
				t.Errorf("node %d inbox out of order: %v", i, e.heard)
			}
		}
	}
}

// TestBatchedStatsMatchGoroutine pins Run's Stats on a two-component
// network to the values the goroutine-per-processor driver, since retired,
// produced for the same node programs: rounds, busy rounds, skipped rounds,
// messages, sizes and both histograms.
func TestBatchedStatsMatchGoroutine(t *testing.T) {
	// A 5-node token chain (active every round until the token passes) and
	// a pair of far-future sleepers exercising the fast-forward path.
	n := 7
	nodes := make([]Node, n)
	topo := make([][]int, n)
	for i := 0; i < 5; i++ {
		nodes[i] = everyRound{&chainNode{id: i, n: 5}}
		if i > 0 {
			topo[i] = append(topo[i], i-1)
		}
		if i < 4 {
			topo[i] = append(topo[i], i+1)
		}
	}
	nodes[5] = &sleeperNode{id: 5, wake: 400, peer: 6}
	nodes[6] = &sleeperNode{id: 6, wake: 900, peer: 5}
	topo[5] = []int{6}
	topo[6] = []int{5}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(2000, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Rounds: 902, SkippedRounds: 891, BusyRounds: 9, Messages: 6, TotalSize: 6, MaxMessageSize: 1}
	want.BusyNodeHist[0] = 9
	want.MsgSizeHist[0] = 6
	if stats != want {
		t.Errorf("Stats = %+v, want %+v", stats, want)
	}
}

// TestBatchedComponentIsolation pins sparse stepping: a component that
// finishes early is never stepped again while an unrelated component keeps
// the run alive for hundreds of rounds.
func TestBatchedComponentIsolation(t *testing.T) {
	topo := [][]int{{1}, {0}, {3}, {2}}
	early := []*echoNode{
		{id: 0, neighbors: []int{1}},
		{id: 1, neighbors: []int{0}},
	}
	late := []*sleeperNode{
		{id: 2, wake: 500, peer: 3},
		{id: 3, wake: 600, peer: 2},
	}
	nodes := []Node{everyRound{early[0]}, everyRound{early[1]}, late[0], late[1]}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(2000, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < 600 {
		t.Errorf("rounds = %d, want ≥ 600 (sleeper schedule preserved)", stats.Rounds)
	}
	if stats.SkippedRounds < 400 {
		t.Errorf("skipped = %d, want most of the idle stretch", stats.SkippedRounds)
	}
	// The echo pair acts in rounds 0 and 1 only; per-component scheduling
	// must not step it during the sleepers' 600-round tail.
	for i, e := range early {
		if e.round > 1 {
			t.Errorf("early node %d stepped at round %d after finishing", i, e.round)
		}
	}
	for i, s := range late {
		if s.executed > 10 {
			t.Errorf("sleeper %d executed %d rounds; component fast-forward ineffective", i, s.executed)
		}
	}
	if stats.Messages != 4 {
		t.Errorf("messages = %d, want 4", stats.Messages)
	}
}

func TestBatchedDeadlockDetected(t *testing.T) {
	nw, err := New([]Node{&stallerNode{}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(100, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestBatchedRejectsPastRounds(t *testing.T) {
	nw, err := New([]Node{&badForwarder{}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(100, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "non-future") {
		t.Fatalf("want non-future error, got %v", err)
	}
}

func TestBatchedTopologyEnforced(t *testing.T) {
	nodes := []Node{everyRound{&violatorNode{}}, everyRound{&idleNode{}}}
	nw, err := New(nodes, [][]int{{}, {}}) // no links
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(5, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("expected topology violation, got %v", err)
	}
}

func TestBatchedMaxRoundsExceeded(t *testing.T) {
	nw, err := New([]Node{everyRound{&neverDone{}}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(7, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "7 rounds") {
		t.Fatalf("expected round-limit error, got %v", err)
	}
}

func TestBatchedNodePanicSurfacesAsError(t *testing.T) {
	nw, err := New([]Node{everyRound{&panicNode{}}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(10, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestBatchedRunTwiceFails(t *testing.T) {
	nw, err := New([]Node{&sleeperNode{id: 0, wake: 1, peer: -1}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(10, BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(10, BatchConfig{}); err == nil {
		t.Error("second Run should fail")
	}
}

// TestBatchedWorkerCountsAgree pins that the stepping pool size cannot
// affect results: serial (1 worker) and maximal pools produce identical
// Stats on a workload wide enough to cross stepGrain.
func TestBatchedWorkerCountsAgree(t *testing.T) {
	build := func() ([]Node, [][]int) {
		n := 128
		nodes := make([]Node, n)
		topo := make([][]int, n)
		for i := 0; i < n; i += 2 {
			nodes[i] = &sleeperNode{id: i, wake: 3 + i%7, peer: i + 1}
			nodes[i+1] = &sleeperNode{id: i + 1, wake: 5 + i%11, peer: i}
			topo[i] = []int{i + 1}
			topo[i+1] = []int{i}
		}
		return nodes, topo
	}
	var ref Stats
	for trial, workers := range []int{1, 0} {
		nodes, topo := build()
		nw, err := New(nodes, topo)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := nw.Run(100, BatchConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = stats
		} else if !reflect.DeepEqual(ref, stats) {
			t.Errorf("workers=%d Stats %+v differ from serial %+v", workers, stats, ref)
		}
	}
}

func TestBatchedNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		topo := [][]int{{1, 2}, {0, 2}, {0, 1}}
		nodes := make([]Node, 3)
		for i := range nodes {
			nodes[i] = everyRound{&echoNode{id: i, neighbors: topo[i]}}
		}
		nw, err := New(nodes, topo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Run(10, BatchConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}
