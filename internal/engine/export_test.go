package engine

// EnableWarmStartForTest turns the warm-start cache on for both height
// classes, so that RunParallel shards each class: cold solves run the
// serial engine, and this is how a test reaches the sharded pipeline
// through the §6 split.
func (ap *ArbitraryPrepared) EnableWarmStartForTest() {
	for _, p := range []*Prepared{ap.wide, ap.narrow} {
		if p != nil {
			p.EnableWarmStart()
		}
	}
}
