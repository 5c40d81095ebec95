package mis

import (
	"math/rand"
	"slices"
	"testing"
)

// coverShape tunes randomCover.
type coverShape struct {
	n          int     // vertices
	demands    int     // demand groups; n gives mostly singletons
	edges      int     // edge groups
	maxPath    int     // most edge groups per vertex
	twinChance float64 // chance an edge group gets a twin with identical members
}

// randomCover draws a clique cover of the given shape. Some edge groups are
// twinned — every vertex joining group g also joins g+edges — so identical
// member lists occur, as series edges produce them in the engine.
func randomCover(shape coverShape, rng *rand.Rand) *Cover {
	c := &Cover{
		Demand:     make([]int32, shape.n),
		Edges:      make([][]int32, shape.n),
		NumDemands: max(shape.demands, 1),
		NumEdges:   2 * max(shape.edges, 1),
	}
	twin := make([]bool, c.NumEdges/2)
	for g := range twin {
		twin[g] = rng.Float64() < shape.twinChance
	}
	for v := range c.Demand {
		c.Demand[v] = int32(rng.Intn(c.NumDemands))
		k := 0
		if shape.maxPath > 0 {
			k = rng.Intn(shape.maxPath + 1)
		}
		for _, g := range rng.Perm(c.NumEdges / 2)[:min(k, c.NumEdges/2)] {
			c.Edges[v] = append(c.Edges[v], int32(g))
			if twin[g] {
				c.Edges[v] = append(c.Edges[v], int32(g+c.NumEdges/2))
			}
		}
	}
	return c
}

func randomShape(rng *rand.Rand) coverShape {
	n := 1 + rng.Intn(80)
	return coverShape{
		n:          n,
		demands:    1 + rng.Intn(n),
		edges:      1 + rng.Intn(2*n),
		maxPath:    rng.Intn(6),
		twinChance: rng.Float64() / 2,
	}
}

func singleStream(seed int64) Drawer {
	rng := rand.New(rand.NewSource(seed))
	return func(int) float64 { return rng.Float64() }
}

// coarseStreams gives every demand group its own stream of priorities from
// a small set, so equal priorities are common and the index tie-break
// decides.
func coarseStreams(seed int64, levels int) Drawer {
	streams := map[int]*rand.Rand{}
	return func(demand int) float64 {
		s, ok := streams[demand]
		if !ok {
			s = rand.New(rand.NewSource(seed*1000 + int64(demand)))
			streams[demand] = s
		}
		return float64(s.Intn(levels)) / float64(levels)
	}
}

func TestLubyProducesMaximalIndependentSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		c := randomCover(randomShape(rng), rng)
		got, iters := Luby(c, singleStream(int64(trial)), nil)
		ind, max := Verify(coverAdjacency(c), got)
		if !ind || !max {
			t.Fatalf("trial=%d: independent=%v maximal=%v", trial, ind, max)
		}
		if iters < 1 {
			t.Fatalf("trial=%d: Luby reported %d iterations", trial, iters)
		}
	}
}

func TestLubyEmptyGraph(t *testing.T) {
	got, iters := Luby(&Cover{}, singleStream(1), nil)
	if len(got) != 0 || iters != 0 {
		t.Errorf("empty graph: got %v, %d iterations", got, iters)
	}
}

func TestLubyCompleteGraphPicksOne(t *testing.T) {
	n := 10
	c := &Cover{Demand: make([]int32, n), Edges: make([][]int32, n), NumDemands: 1}
	got, _ := Luby(c, singleStream(3), nil)
	count := 0
	for _, in := range got {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Errorf("complete graph MIS has %d members, want 1", count)
	}
}

func TestLubyIsolatedVerticesAllIn(t *testing.T) {
	n := 6
	c := &Cover{Demand: make([]int32, n), Edges: make([][]int32, n), NumDemands: n}
	for v := range c.Demand {
		c.Demand[v] = int32(v) // singleton groups only
	}
	got, iters := Luby(c, singleStream(5), nil)
	for v, in := range got {
		if !in {
			t.Errorf("isolated vertex %d not in MIS", v)
		}
	}
	if iters != 1 {
		t.Errorf("edgeless graph should finish in 1 iteration, took %d", iters)
	}
}

func TestLubyDeterministicPerOwnerStreams(t *testing.T) {
	// The same per-demand streams must yield the same MIS regardless of how
	// many times we run (this is what lets the local engine mirror the
	// distributed protocol).
	rng := rand.New(rand.NewSource(9))
	c := randomCover(coverShape{n: 40, demands: 8, edges: 30, maxPath: 4}, rng)
	a, _ := Luby(c, coarseStreams(1, 1<<20), nil)
	a = slices.Clone(a)
	b, _ := Luby(c, coarseStreams(1, 1<<20), nil)
	if !slices.Equal(a, b) {
		t.Fatalf("identical runs differ: %v vs %v", a, b)
	}
}

// checkMatchesAdjacency pins the group form to the adjacency oracle on one
// cover: identical Luby membership and iteration count for the same draws,
// each vertex drawing from its demand group's stream, and the result a
// maximal independent set.
func checkMatchesAdjacency(t *testing.T, c *Cover, draw func() Drawer, s *Scratch) {
	t.Helper()
	adj := coverAdjacency(c)
	own := make([]int, len(c.Demand))
	for v, g := range c.Demand {
		own[v] = int(g)
	}
	want, wantIters := lubyAdj(own, adj, draw())
	got, iters := Luby(c, draw(), s)
	if !slices.Equal(got, want) || iters != wantIters {
		t.Fatalf("Luby: groups %v in %d iterations, adjacency %v in %d", got, iters, want, wantIters)
	}
	if ind, max := Verify(adj, got); !ind || !max {
		t.Fatalf("Luby: independent=%v maximal=%v", ind, max)
	}
}

// TestLubyGroupsMatchesAdjacency is the property behind the engine's group
// form: on random clique covers — singleton groups, twin groups with
// identical member lists, and coarse priorities that force the index
// tie-break — group Luby equals its adjacency form. One Scratch serves
// every trial, so stale stamps and regrown group arrays are exercised too.
func TestLubyGroupsMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		c := randomCover(randomShape(rng), rng)
		levels := []int{2, 4, 1 << 30}[trial%3]
		seed := int64(trial)
		checkMatchesAdjacency(t, c, func() Drawer { return coarseStreams(seed, levels) }, &s)
	}
}

// TestScratchStampWrap runs elections across the stamp wrap-around: marks
// left by earlier passes must not read as fresh after the counter restarts.
func TestScratchStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Scratch
	for trial := 0; trial < 20; trial++ {
		s.tick = ^uint32(0) - uint32(trial%4)
		c := randomCover(coverShape{n: 30, demands: 10, edges: 20, maxPath: 3, twinChance: 0.3}, rng)
		seed := int64(trial)
		checkMatchesAdjacency(t, c, func() Drawer { return coarseStreams(seed, 3) }, &s)
	}
}

// FuzzLubyGroups fuzzes the group ≡ adjacency property over cover shapes
// and priority granularity. Vertices draw from their demand groups'
// streams; the last argument is unused and keeps recorded inputs' shape.
func FuzzLubyGroups(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(5), uint8(12), uint8(3), uint8(2), uint8(4))
	f.Add(int64(2), uint8(64), uint8(64), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(40), uint8(1), uint8(60), uint8(5), uint8(5), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, n, demands, edges, maxPath, twins, _ uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomCover(coverShape{
			n:          int(n % 96),
			demands:    int(demands),
			edges:      int(edges),
			maxPath:    int(maxPath % 8),
			twinChance: float64(twins%6) / 5,
		}, rng)
		levels := 1 + int(seed&7)
		checkMatchesAdjacency(t, c, func() Drawer { return coarseStreams(seed, levels) }, nil)
	})
}

func TestNormalize(t *testing.T) {
	adj := [][]int{
		{1, 1, 0, 2}, // dup + self-loop
		{0},
		{0},
	}
	got := Normalize(3, adj)
	if len(got[0]) != 2 || got[0][0] != 1 || got[0][1] != 2 {
		t.Errorf("Normalize row 0 = %v, want [1 2]", got[0])
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	adj := [][]int{{1}, {0}, {}}
	if ind, _ := Verify(adj, []bool{true, true, true}); ind {
		t.Error("adjacent members should not be independent")
	}
	if _, max := Verify(adj, []bool{false, false, true}); max {
		t.Error("uncovered non-member should not be maximal")
	}
	if ind, max := Verify(adj, []bool{true, false, true}); !ind || !max {
		t.Error("valid MIS rejected")
	}
}
