package treesched

import (
	"slices"

	"treesched/internal/engine"
)

// SessionItems exposes a copy of the session's current engine item set to
// the external test package, for scratch-equality assertions.
func SessionItems(sess *Session) []engine.Item {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return slices.Clone(sess.p.Items())
}

// DemandHeights exposes the heights of the instance's demands, in demand id
// order, to the external test package.
func DemandHeights(in *Instance) []float64 {
	hs := make([]float64, len(in.demands))
	for i, d := range in.demands {
		hs[i] = d.Height
	}
	return hs
}
