package mis

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkLuby(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			c := randomCover(coverShape{n: n, demands: n, edges: n, maxPath: 4}, rng)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Luby(c, singleStream(int64(i)), &s)
			}
		})
	}
}
