package engine

import "sync"

// This file implements the warm-started incremental dual cache of the
// sharded pipeline. The epoch/stage/step schedule is component-local: a
// shard's execution reads nothing outside its preShard (its shard-local
// layout) and the run configuration, and its per-owner priority
// streams are re-seeded from scratch every run (NewStream over the external
// owner id) — so two runs of the same preShard under the same configuration
// are the same computation, bit for bit. The cache exploits that: after a
// sharded solve it records every shard's first-phase outcome (final dense
// α/β assignment, raise stack, trace, step counters), and the next solve
// replays those outcomes verbatim for every shard whose preShard pointer
// survived — re-running the schedule only where Apply actually changed the
// item set. The merged Result is built by the same deterministic shard
// merge either way, so warm solves are bitwise identical to cold solves.
//
// Invalidation rides on ensureShards' reuse discipline: a cache entry is
// the outcome kept on its preShard, and ensureShards keeps a preShard only
// for a component no delta reached since the last build. Components a
// delta touched (or renumbered) get fresh preShard values, which hold no
// outcome and therefore miss; a full re-preparation (Solver compaction)
// builds a fresh Prepared and starts cold. Stream positions cannot drift
// across rounds because streams are not carried across runs at all.

// WarmStats is a snapshot of a Prepared's warm-start counters. Counters are
// cumulative since the Prepared was built (a compaction re-prepare starts a
// fresh Prepared; Session folds the retired counters into its own totals).
type WarmStats struct {
	// Enabled reports whether the warm cache is on for this Prepared.
	Enabled bool
	// WarmSolves counts solves that replayed at least one cached component;
	// ColdSolves counts the rest (first solves, key changes, and solves that
	// bypassed the sharded pipeline entirely).
	WarmSolves int
	ColdSolves int
	// ComponentsReplayed / ComponentsResolved count per-solve component
	// outcomes: replayed from the cache versus re-run through the schedule.
	ComponentsReplayed int
	ComponentsResolved int
}

// warmKey is the run-configuration fingerprint a cached shard outcome is
// valid under. Shard execution is a pure function of the preShard and these
// fields: the raise rule (mode), election kind and seed, the ξ-ladder
// (epsilon, resolved xi, singleStage, stage count), the Lemma 5.1 step cap
// (which depends on the global profit range, so a shrinking range still
// surfaces a cap violation a cold run would have hit), and whether a trace
// was recorded. Plan fields not listed (MaxGroup, Delta, PMin/PMax beyond
// the cap) cannot change a shard's execution: epochs without members skip
// with zero side effects, and ∆/profit extremes only feed the merge layer.
type warmKey struct {
	mode        Mode
	mis         MISKind
	seed        int64
	epsilon     float64
	xi          float64 // resolved by PlanFor, so HMin is folded in
	singleStage bool
	recordTrace bool
	stages      int
	stepCap     int
}

// warmKeyFor fingerprints a resolved configuration. cfg must already be
// resolved by PlanFor (Xi defaulted), which Solve guarantees.
func warmKeyFor(cfg *Config, plan *Plan) warmKey {
	return warmKey{
		mode:        cfg.Mode,
		mis:         cfg.MIS,
		seed:        cfg.Seed,
		epsilon:     cfg.Epsilon,
		xi:          cfg.Xi,
		singleStage: cfg.SingleStage,
		recordTrace: cfg.RecordTrace,
		stages:      plan.Stages,
		stepCap:     plan.StepCap,
	}
}

// warmState is the cache attachment on a Prepared: the configuration the
// outcomes kept on the shards (preShard.out) were recorded under, and the
// counters. mu guards it and every preShard.out, so concurrent solves may
// replay and record.
type warmState struct {
	mu       sync.Mutex
	enabled  bool
	recorded bool // a sharded solve has recorded outcomes under key
	key      warmKey
	stats    WarmStats
}

// EnableWarmStart turns on the warm-start cache for this Prepared: from
// then on Solve runs the sharded pipeline, which records
// per-component outcomes and replays them for components left untouched by
// intervening Applies. Results are unaffected — warm solves are bitwise
// identical to cold ones — only latency changes. The cache retains the
// last solve's per-component state (duals, stacks, traces), so enable it
// on long-lived session state, not on one-shot solves.
func (p *Prepared) EnableWarmStart() {
	p.warm.mu.Lock()
	p.warm.enabled = true
	p.warm.mu.Unlock()
}

// WarmStats reports the Prepared's cumulative warm-start counters.
func (p *Prepared) WarmStats() WarmStats {
	p.warm.mu.Lock()
	defer p.warm.mu.Unlock()
	st := p.warm.stats
	st.Enabled = p.warm.enabled
	return st
}

func (w *warmState) on() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enabled
}

// replay fills outs[s] with the outcome recorded on shards[s], for every
// shard that holds one recorded under key, and returns how many it filled.
func (w *warmState) replay(key warmKey, shards []*preShard, outs []*shardOut) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.enabled || !w.recorded || w.key != key {
		return 0
	}
	n := 0
	for s, pre := range shards {
		if pre.out != nil {
			outs[s] = pre.out
			n++
		}
	}
	return n
}

// record publishes a completed sharded solve: every shard's outcome, kept
// on the shard (shards ensureShards dropped go with theirs), plus the
// solve's replay accounting.
func (w *warmState) record(key warmKey, shards []*preShard, outs []*shardOut, replayed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.enabled {
		return
	}
	w.key, w.recorded = key, true
	for s, pre := range shards {
		pre.out = outs[s]
	}
	w.stats.ComponentsReplayed += replayed
	w.stats.ComponentsResolved += len(shards) - replayed
	if replayed > 0 {
		w.stats.WarmSolves++
	} else {
		w.stats.ColdSolves++
	}
}

// noteCold counts a solve that bypassed the sharded pipeline (serial path:
// one component, or a known-single-component instance), so
// WarmSolves+ColdSolves always equals the number of solves run while the
// cache was enabled.
func (w *warmState) noteCold() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.enabled {
		w.stats.ColdSolves++
	}
}
