package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomTree(n, rng)
}

// lcaSink keeps the compiler from dropping the inlined LCA queries.
var lcaSink Vertex

// BenchmarkLCA times one LCA query over 1<<16 random pairs per size, too
// many for the branch predictor to learn the table walk's outcomes.
func BenchmarkLCA(b *testing.B) {
	const pairs = 1 << 16
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := benchTree(b, n)
			rng := rand.New(rand.NewSource(2))
			us := make([]int, pairs)
			vs := make([]int, pairs)
			for i := range us {
				us[i], vs[i] = rng.Intn(n), rng.Intn(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lcaSink = tr.LCA(us[i&(pairs-1)], vs[i&(pairs-1)])
			}
		})
	}
}

func BenchmarkPathEdges(b *testing.B) {
	tr := benchTree(b, 4096)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(4096), rng.Intn(4096)
		tr.PathEdges(u, v)
	}
}

// BenchmarkNewTree times building a random tree, its adjacency and its
// LCA table, at 256 vertices (a workload network) and 4,096.
func BenchmarkNewTree(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			perm := rng.Perm(n)
			edges := make([]Edge, 0, n-1)
			for v := 1; v < n; v++ {
				edges = append(edges, Edge{U: perm[rng.Intn(v)], V: perm[v]})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewTree(n, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
