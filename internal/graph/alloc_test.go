package graph

import (
	"math/rand"
	"testing"
)

// maxNewTreeAllocs bounds the allocations of one NewTree at every size
// (TestNewTreeAllocs): the tree, its adjacency array, its parent and depth
// slab, its slab of adjacency offsets, preorder positions and LCA rows, the
// LCA row headers and the build's scratch, as measured when the bound was
// set. A change that allocates more must say why, and one that allocates
// less lowers it.
const maxNewTreeAllocs = 6

// raceEnabled reports whether the race detector is on (race_test.go).
var raceEnabled = false

// TestNewTreeAllocs gates NewTree's allocations per call at 255 and 4,095
// vertices: at most maxNewTreeAllocs, and the same count at both sizes.
func TestNewTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without the race detector's instrumentation")
	}
	counts := map[int]float64{}
	for _, n := range []int{255, 4095} {
		edges := randomTree(n, rand.New(rand.NewSource(int64(n)))).Edges()
		counts[n] = testing.AllocsPerRun(20, func() {
			if _, err := NewTree(n, edges); err != nil {
				t.Fatal(err)
			}
		})
		if counts[n] > maxNewTreeAllocs {
			t.Fatalf("NewTree over %d vertices allocates %v times, bound %d", n, counts[n], maxNewTreeAllocs)
		}
	}
	if counts[255] != counts[4095] {
		t.Fatalf("NewTree's allocations grow with n: %v", counts)
	}
	t.Logf("NewTree allocates %v times per call (bound %d)", counts[255], maxNewTreeAllocs)
}
