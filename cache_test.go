package treesched

import (
	"fmt"
	"slices"
	"testing"

	"treesched/internal/graph"
)

// The Solver's decomposition cache evicts one least-recently-used entry on
// overflow (the earlier design wiped the whole map): a hot key that keeps
// being touched must survive any amount of one-off cache pressure.

func TestLRUHotKeySurvivesPressure(t *testing.T) {
	c := newLRU[int](4)
	c.put("hot", 1)
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("cold-%d", i), i)
		if _, ok := c.get([]byte("hot")); !ok {
			t.Fatalf("hot key evicted after %d cold inserts", i+1)
		}
		if c.len() > 4 {
			t.Fatalf("cache grew to %d entries", c.len())
		}
	}
	// The most recent cold keys are still here, older ones evicted singly.
	if _, ok := c.get([]byte("cold-99")); !ok {
		t.Fatal("most recent cold key evicted")
	}
	if _, ok := c.get([]byte("cold-0")); ok {
		t.Fatal("oldest cold key survived a full cache of newer entries")
	}
}

func TestLRUUpdateRefreshes(t *testing.T) {
	c := newLRU[string](2)
	c.put("a", "1")
	c.put("b", "2")
	c.put("a", "3") // refresh: b becomes the eviction candidate
	c.put("c", "4")
	if v, ok := c.get([]byte("a")); !ok || v != "3" {
		t.Fatalf("a = %q, %v; want refreshed value", v, ok)
	}
	if _, ok := c.get([]byte("b")); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestSolverCacheHotInstanceSurvives drives the real decomposition cache
// past eviction with one-off networks, re-solving a hot network in between:
// the hot network must keep hitting, and its result must not drift.
func TestSolverCacheHotInstanceSurvives(t *testing.T) {
	s := NewSolver(Options{Epsilon: 0.1, Seed: 1})
	build := func(edges [][2]int, profit float64) *Instance {
		in := NewInstance(8)
		if _, err := in.AddTree(edges); err != nil {
			t.Fatal(err)
		}
		in.AddDemand(0, 7, profit)
		in.AddDemand(3, 5, profit/2)
		return in
	}
	// One-off network k gives vertex v the parent k's v-th digit in the
	// mixed radix 1, 2, …, 7, so distinct k are distinct structures; the
	// hot path's digits (0, 1, …, 6) are k = 5039, far past the ks used.
	oneOff := func(k int) [][2]int {
		edges := make([][2]int, 0, 7)
		for v := 1; v < 8; v++ {
			edges = append(edges, [2]int{k % v, v})
			k /= v
		}
		return edges
	}
	path := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}
	want, err := s.Solve(build(path, 8))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < maxCachedLayouts+16; k++ {
		if _, err := s.Solve(build(oneOff(k), float64(k+100))); err != nil {
			t.Fatal(err)
		}
		before := s.CacheStats().Layouts
		if _, err := s.Solve(build(path, 8)); err != nil {
			t.Fatal(err)
		}
		if after := s.CacheStats().Layouts; after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Fatalf("hot network missed after %d one-off networks: %+v -> %+v", k+1, before, after)
		}
	}
	if got := s.CachedLayouts(); got != maxCachedLayouts {
		t.Fatalf("CachedLayouts = %d, want full cache %d", got, maxCachedLayouts)
	}
	got, err := s.Solve(build(path, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got.Profit != want.Profit || len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("hot instance result drifted: profit %v vs %v", got.Profit, want.Profit)
	}
}

// TestSolverCacheStatsCounters pins the exact hit/miss accounting of the
// decomposition cache, one lookup per network per solve: first sight of a
// network misses, re-solving the same instance hits, and new demand sets
// on the known network hit, on the unit and the arbitrary-height pipeline
// alike. The Prepared and Arbitrary counters stay zero: the Solver caches
// no instances.
func TestSolverCacheStatsCounters(t *testing.T) {
	s := NewSolver(Options{Epsilon: 0.1, Seed: 1})
	build := func(profit float64, opts ...DemandOption) *Instance {
		in := NewInstance(6)
		if _, err := in.AddTree([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}); err != nil {
			t.Fatal(err)
		}
		in.AddDemand(0, 3, profit, opts...)
		in.AddDemand(2, 5, profit/2)
		return in
	}
	check := func(stage string, in *Instance, want CacheCounters) {
		t.Helper()
		if _, err := s.Solve(in); err != nil {
			t.Fatal(err)
		}
		if got := s.CacheStats(); got != (CacheStats{Layouts: want}) {
			t.Fatalf("%s: CacheStats = %+v, want layouts %+v and nothing else", stage, got, want)
		}
	}
	if got := s.CacheStats(); got != (CacheStats{}) {
		t.Fatalf("fresh solver: CacheStats = %+v, want zero", got)
	}
	check("first solve", build(8), CacheCounters{Len: 1, Misses: 1})
	check("re-solve", build(8), CacheCounters{Len: 1, Hits: 1, Misses: 1})
	check("new demands, known network", build(3), CacheCounters{Len: 1, Hits: 2, Misses: 1})
	check("sub-unit heights, known network", build(3, Height(0.5)), CacheCounters{Len: 1, Hits: 3, Misses: 1})
}

// TestInstanceSignatureExact pins the decomposition cache's key
// (appendTreeKey), which is what remains of the instance signature: a
// structurally identical tree shares its key however its edges are listed,
// and every other tree does not (a shared key would serve one network's
// decomposition to the other). It checks every labelled tree on 4 and 5
// vertices, enumerated by Prüfer sequence.
func TestInstanceSignatureExact(t *testing.T) {
	owner := map[string]string{}
	for n := 4; n <= 5; n++ {
		trees := 1 // n^(n-2) labelled trees, one per Prüfer sequence
		for range n - 2 {
			trees *= n
		}
		seq := make([]int, n-2)
		for code := 0; code < trees; code++ {
			c := code
			for i := range seq {
				seq[i], c = c%n, c/n
			}
			edges := pruferEdges(n, seq)
			name := fmt.Sprintf("n=%d %v", n, edges)
			key := string(appendTreeKey(nil, graph.MustTree(n, edges)))
			if prev, ok := owner[key]; ok {
				t.Fatalf("%s shares its key with %s", name, prev)
			}
			owner[key] = name
			// The same structure, edges listed backwards and each reversed.
			flipped := make([]graph.Edge, len(edges))
			for i, e := range edges {
				flipped[len(edges)-1-i] = graph.Edge{U: e.V, V: e.U}
			}
			if string(appendTreeKey(nil, graph.MustTree(n, flipped))) != key {
				t.Fatalf("%s: relisting its edges changed the key", name)
			}
		}
	}
}

// pruferEdges decodes a Prüfer sequence into the edges of its labelled tree
// on n vertices.
func pruferEdges(n int, seq []int) []graph.Edge {
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, x := range seq {
		degree[x]++
	}
	edges := make([]graph.Edge, 0, n-1)
	for _, x := range seq {
		leaf := slices.Index(degree, 1)
		edges = append(edges, graph.Edge{U: leaf, V: x})
		degree[leaf]--
		degree[x]--
	}
	u := slices.Index(degree, 1)
	v := u + 1 + slices.Index(degree[u+1:], 1)
	return append(edges, graph.Edge{U: u, V: v})
}
