package treesched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
)

// The Solver's caches evict one least-recently-used entry on overflow (the
// earlier design wiped the whole map): a hot key that keeps being touched
// must survive any amount of one-off cache pressure.

func TestLRUHotKeySurvivesPressure(t *testing.T) {
	c := newLRU[int](4)
	c.put("hot", 1)
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("cold-%d", i), i)
		if _, ok := c.get("hot"); !ok {
			t.Fatalf("hot key evicted after %d cold inserts", i+1)
		}
		if c.len() > 4 {
			t.Fatalf("cache grew to %d entries", c.len())
		}
	}
	// The most recent cold keys are still here, older ones evicted singly.
	if _, ok := c.get("cold-99"); !ok {
		t.Fatal("most recent cold key evicted")
	}
	if _, ok := c.get("cold-0"); ok {
		t.Fatal("oldest cold key survived a full cache of newer entries")
	}
}

func TestLRUUpdateRefreshes(t *testing.T) {
	c := newLRU[string](2)
	c.put("a", "1")
	c.put("b", "2")
	c.put("a", "3") // refresh: b becomes the eviction candidate
	c.put("c", "4")
	if v, ok := c.get("a"); !ok || v != "3" {
		t.Fatalf("a = %q, %v; want refreshed value", v, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestSolverCacheHotInstanceSurvives drives the real prepared cache past an
// eviction and checks the hot instance still hits.
func TestSolverCacheHotInstanceSurvives(t *testing.T) {
	s := NewSolver(Options{Epsilon: 0.1, Seed: 1})
	build := func(profit float64) *Instance {
		in := NewInstance(6)
		if _, err := in.AddTree([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}); err != nil {
			t.Fatal(err)
		}
		in.AddDemand(0, 3, profit)
		in.AddDemand(2, 5, profit/2)
		return in
	}
	hot := build(8)
	want, err := s.Solve(hot)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CachedPrepared(); got != 1 {
		t.Fatalf("CachedPrepared = %d, want 1", got)
	}
	// Pressure: distinct instances, re-touching the hot one in between.
	for i := 0; i < maxCachedPrepared+16; i++ {
		if _, err := s.Solve(build(float64(i + 100))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(hot); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CachedPrepared(); got != maxCachedPrepared {
		t.Fatalf("CachedPrepared = %d, want full cache %d", got, maxCachedPrepared)
	}
	got, err := s.Solve(hot)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profit != want.Profit || len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("hot instance result drifted: profit %v vs %v", got.Profit, want.Profit)
	}
}

// TestSolverCacheStatsCounters pins the exact hit/miss accounting of the
// preparation caches: first sight of an instance misses Prepared and
// Layouts, re-solving it hits Prepared without touching Layouts, and a new
// demand set on a known network structure misses Prepared but hits Layouts.
func TestSolverCacheStatsCounters(t *testing.T) {
	s := NewSolver(Options{Epsilon: 0.1, Seed: 1})
	build := func(profit float64) *Instance {
		in := NewInstance(6)
		if _, err := in.AddTree([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}); err != nil {
			t.Fatal(err)
		}
		in.AddDemand(0, 3, profit)
		in.AddDemand(2, 5, profit/2)
		return in
	}
	check := func(stage string, want CacheStats) {
		t.Helper()
		if got := s.CacheStats(); got != want {
			t.Fatalf("%s: CacheStats = %+v, want %+v", stage, got, want)
		}
	}
	check("fresh solver", CacheStats{})

	if _, err := s.Solve(build(8)); err != nil {
		t.Fatal(err)
	}
	check("first solve", CacheStats{
		Layouts:  CacheCounters{Len: 1, Misses: 1},
		Prepared: CacheCounters{Len: 1, Misses: 1},
	})

	// Same instance content: the prepared fast path hits and skips the
	// layout cache entirely.
	if _, err := s.Solve(build(8)); err != nil {
		t.Fatal(err)
	}
	check("re-solve", CacheStats{
		Layouts:  CacheCounters{Len: 1, Misses: 1},
		Prepared: CacheCounters{Len: 1, Hits: 1, Misses: 1},
	})

	// New demands on the same network structure: a prepared miss that
	// reuses the cached tree decomposition.
	if _, err := s.Solve(build(3)); err != nil {
		t.Fatal(err)
	}
	check("new demands, known network", CacheStats{
		Layouts:  CacheCounters{Len: 1, Hits: 1, Misses: 1},
		Prepared: CacheCounters{Len: 2, Hits: 1, Misses: 2},
	})

	if st := s.CacheStats(); st.Arbitrary != (CacheCounters{}) {
		t.Fatalf("Arbitrary counters moved on the unit pipeline: %+v", st.Arbitrary)
	}
}

// TestInstanceSignatureExact edits one field of an instance at a time:
// every edit must change the content key (a shared key would serve one
// instance's cached preparation to the other), an identical copy must not,
// and tree keys must follow the networks alone.
func TestInstanceSignatureExact(t *testing.T) {
	star := graph.MustTree(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	base := func() *model.Instance {
		path, _ := graph.NewPath(4)
		return &model.Instance{NumVertices: 4, Trees: []*graph.Tree{path, star}, Demands: []model.Demand{
			{ID: 0, U: 0, V: 3, Profit: 2.5, Height: 1, Access: []int{0, 1}},
			{ID: 1, U: 1, V: 2, Profit: 1, Height: 0.5, Access: []int{1}},
		}}
	}
	key, treeKeys := instanceSignature(base(), engine.IdealDecomp)
	if again, _ := instanceSignature(base(), engine.IdealDecomp); again != key {
		t.Fatal("identical instances got different keys")
	}
	if k, _ := instanceSignature(base(), engine.BalancingDecomp); k == key {
		t.Error("decomposition kind does not change the key")
	}
	edits := map[string]func(m *model.Instance){
		"endpoint":          func(m *model.Instance) { m.Demands[0].V = 2 },
		"swapped endpoints": func(m *model.Instance) { m.Demands[1].U, m.Demands[1].V = 2, 1 },
		"profit last bit":   func(m *model.Instance) { m.Demands[0].Profit = math.Nextafter(2.5, 3) },
		"height":            func(m *model.Instance) { m.Demands[1].Height = 0.75 },
		"access order":      func(m *model.Instance) { m.Demands[0].Access = []int{1, 0} },
		"access subset":     func(m *model.Instance) { m.Demands[0].Access = []int{0} },
		"extra demand": func(m *model.Instance) {
			m.Demands = append(m.Demands, model.Demand{ID: 2, U: 0, V: 1, Profit: 1, Height: 1, Access: []int{0}})
		},
		"tree": func(m *model.Instance) {
			m.Trees[0] = graph.MustTree(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
		},
	}
	for name, edit := range edits {
		m := base()
		edit(m)
		k, tk := instanceSignature(m, engine.IdealDecomp)
		if k == key {
			t.Errorf("%s: edited instance shares the key", name)
		}
		if name != "tree" && !slices.Equal(tk, treeKeys) {
			t.Errorf("%s: tree keys changed with the demands", name)
		}
		if name == "tree" && (tk[0] == treeKeys[0] || tk[1] != treeKeys[1]) {
			t.Errorf("tree keys do not follow the networks")
		}
	}
}
