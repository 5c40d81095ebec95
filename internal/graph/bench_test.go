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

func BenchmarkLCA(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := benchTree(b, n)
			rng := rand.New(rand.NewSource(2))
			us := make([]int, 1024)
			vs := make([]int, 1024)
			for i := range us {
				us[i], vs[i] = rng.Intn(n), rng.Intn(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.LCA(us[i%1024], vs[i%1024])
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
