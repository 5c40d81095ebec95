package decomp

import (
	"math/rand"
	"testing"

	"treesched/internal/graph/graphtest"
)

// maxIdealAllocs bounds the allocations of one Ideal at every size
// (TestIdealAllocs): the decomposition, its Parent, Depth and Pivot
// arrays, the pivot sets' one backing array, and the construction's
// scratch slab, task stack and Γ arena, as measured when the bound was
// set. A change that allocates more must say why, and one that allocates
// less lowers it.
const maxIdealAllocs = 8

// raceEnabled reports whether the race detector is on (race_test.go).
var raceEnabled = false

// TestIdealAllocs gates Ideal's allocations per call at 255 and 4,095
// vertices: at most maxIdealAllocs, and the same count at both sizes.
func TestIdealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without the race detector's instrumentation")
	}
	counts := map[int]float64{}
	for _, n := range []int{255, 4095} {
		tr := graphtest.RandomTree(n, rand.New(rand.NewSource(int64(n))))
		counts[n] = testing.AllocsPerRun(20, func() { Ideal(tr) })
		if counts[n] > maxIdealAllocs {
			t.Fatalf("Ideal over %d vertices allocates %v times, bound %d", n, counts[n], maxIdealAllocs)
		}
	}
	if counts[255] != counts[4095] {
		t.Fatalf("Ideal's allocations grow with n: %v", counts)
	}
	t.Logf("Ideal allocates %v times per call (bound %d)", counts[255], maxIdealAllocs)
}
