package decomp

import (
	"math/rand"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
)

// maxIdealAllocs bounds the allocations of one Ideal at every size
// (TestIdealAllocs): the decomposition, its Parent, Depth and Pivot
// arrays, the pivot sets' one backing array, and the construction's
// scratch slab, task stack and Γ arena, as measured when the bound was
// set. A change that allocates more must say why, and one that allocates
// less lowers it.
const maxIdealAllocs = 8

// maxRootFixingAllocs bounds the allocations of one RootFixing at every
// size (TestRootFixingAllocs): the decomposition, its Parent, Depth and
// Pivot arrays, the pivot sets' one backing array and the BFS queue, as
// measured when the bound was set, under the same rule.
const maxRootFixingAllocs = 6

// raceEnabled reports whether the race detector is on (race_test.go).
var raceEnabled = false

// TestIdealAllocs gates Ideal's allocations per call at 255 and 4,095
// vertices: at most maxIdealAllocs, and the same count at both sizes.
func TestIdealAllocs(t *testing.T) {
	constantAllocs(t, "Ideal", maxIdealAllocs, Ideal)
}

// TestRootFixingAllocs gates RootFixing's allocations per call at 255 and
// 4,095 vertices: at most maxRootFixingAllocs, and the same count at both
// sizes.
func TestRootFixingAllocs(t *testing.T) {
	constantAllocs(t, "RootFixing", maxRootFixingAllocs, func(tr *graph.Tree) *TreeDecomposition { return RootFixing(tr, 0) })
}

// constantAllocs checks that build allocates at most bound times per call
// on random trees of 255 and 4,095 vertices, and as often at both sizes.
func constantAllocs(t *testing.T, name string, bound int, build func(*graph.Tree) *TreeDecomposition) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are gated without the race detector's instrumentation")
	}
	counts := map[int]float64{}
	for _, n := range []int{255, 4095} {
		tr := graphtest.RandomTree(n, rand.New(rand.NewSource(int64(n))))
		counts[n] = testing.AllocsPerRun(20, func() { build(tr) })
		if counts[n] > float64(bound) {
			t.Fatalf("%s over %d vertices allocates %v times, bound %d", name, n, counts[n], bound)
		}
	}
	if counts[255] != counts[4095] {
		t.Fatalf("%s's allocations grow with n: %v", name, counts)
	}
	t.Logf("%s allocates %v times per call (bound %d)", name, counts[255], bound)
}
