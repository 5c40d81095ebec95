package decomptest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
)

func TestBalancerSplitsInHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		tr := graphtest.RandomTree(n, rng)
		ops := NewOps(tr)
		comp := allVertices(n)
		z := ops.Balancer(comp)
		parts := ops.Split(comp, z)
		total := 0
		for _, p := range parts {
			if len(p) > n/2 {
				t.Fatalf("n=%d balancer %d leaves part of size %d > %d", n, z, len(p), n/2)
			}
			total += len(p)
		}
		if total != n-1 {
			t.Fatalf("split lost vertices: %d parts totaling %d, want %d", len(parts), total, n-1)
		}
	}
}

func TestBalancerOnSubComponent(t *testing.T) {
	tr := graphtest.Fig6Tree()
	ops := NewOps(tr)
	// Component {4,8,7,1,11,12,3} = paper's C(5) (§4.1 example, 1-indexed
	// {5,9,8,2,12,13,4}).
	comp := []graph.Vertex{1, 3, 4, 7, 8, 11, 12}
	if !ops.IsComponent(comp) {
		t.Fatalf("expected %v to induce a subtree", comp)
	}
	z := ops.Balancer(comp)
	parts := ops.Split(comp, z)
	for _, p := range parts {
		if len(p) > len(comp)/2 {
			t.Fatalf("balancer %d leaves part %v of size %d > %d", z, p, len(p), len(comp)/2)
		}
	}
}

func TestSplitComponentsAreComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		tr := graphtest.RandomTree(n, rng)
		ops := NewOps(tr)
		comp := allVertices(n)
		z := rng.Intn(n)
		parts := ops.Split(comp, z)
		union := []graph.Vertex{}
		for _, p := range parts {
			if !ops.IsComponent(p) {
				t.Fatalf("split part %v is not a component", p)
			}
			union = append(union, p...)
		}
		sort.Ints(union)
		want := []graph.Vertex{}
		for v := 0; v < n; v++ {
			if v != z {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(union, want) {
			t.Fatalf("split union %v, want %v", union, want)
		}
		// Splitting by z yields exactly deg(z) parts when the component is
		// the whole tree.
		if len(parts) != tr.Degree(z) {
			t.Fatalf("split by %d gave %d parts, want deg=%d", z, len(parts), tr.Degree(z))
		}
	}
}

func BenchmarkBalancer(b *testing.B) {
	for _, n := range []int{255, 4095} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := graphtest.RandomTree(n, rand.New(rand.NewSource(1)))
			ops := NewOps(tr)
			comp := allVertices(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.Balancer(comp)
			}
		})
	}
}
