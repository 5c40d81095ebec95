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

// EngineInput exposes the engine items and the unit-mode engine Config
// that a Solve of in under opts runs on, to tests that re-run a stage of
// the pipeline themselves.
func EngineInput(in *Instance, opts Options) ([]engine.Item, engine.Config, error) {
	s := NewSolver(opts)
	m, err := in.build()
	if err != nil {
		return nil, engine.Config{}, err
	}
	layered, err := s.layeredFor(m)
	if err != nil {
		return nil, engine.Config{}, err
	}
	items, err := engine.BuildTreeItemsLayered(m, layered)
	return items, s.opts.engineConfig(), err
}

// SessionDemandSlots exposes the number of demand slots of the session's
// prepared layout, freed ones included, to the external test package.
func SessionDemandSlots(sess *Session) int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.p.DemandSlots()
}
