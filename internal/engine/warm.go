package engine

// This file implements the warm-started incremental dual cache of the
// sharded pipeline. The epoch/stage/step schedule is component-local: a
// shard's run reads only its own items' views and its own entries of the
// shared dual, which it zeroes first, besides the run configuration, and
// its per-demand priority streams are re-seeded from scratch every run
// (NewStream over the external demand id) — so two runs of the same
// preShard under the same configuration are the same computation, bit for
// bit. The cache exploits that: after a sharded solve it records every
// shard's outcome (raise stack, greedy selection, exact partial sums,
// trace, step counters), and the next solve replays those outcomes
// verbatim for every shard whose preShard pointer survived and whose
// stages ended below the plan's step cap — re-running the schedule only
// where Apply actually changed the item set, or where a shrunken profit
// range lowered the cap to a stage's length. A replayed shard's entries of
// the shared dual are still its recorded run's: no other shard writes
// them, and no Apply does. The merged Result is built by the same
// deterministic shard merge either way, so warm solves are bitwise
// identical to cold solves.
//
// Invalidation rides on ensureShards' reuse discipline: a cache entry is
// the outcome kept on its preShard, and ensureShards keeps a preShard in
// the table only for a component no delta reached since the last pass.
// Components a delta touched (or renumbered) get fresh preShard values,
// which hold no outcome and therefore miss. A kept shard's demands all
// stay live, so Apply never gives one of its global slots to an arrival,
// and a kept shard's items keep their ids. A table of one keeps its shard
// across the serial solves it serves, so the shard still replays once
// arrivals form components beside it. A fresh Prepared starts cold. Stream positions cannot drift across rounds because streams are
// not carried across runs at all.

// WarmStats is a snapshot of a Prepared's warm-start counters. Counters are
// cumulative since the Prepared was built; a Session keeps one Prepared for
// its whole life, so they are the Session's own.
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
// fields: the raise rule (mode) and seed, the ξ-ladder (epsilon, the plan's
// ξ and singleStage, which fix the stages and their thresholds), and
// whether a trace was recorded. Plan fields not listed cannot change a
// shard's execution: epochs without members skip with zero side effects,
// ∆, the least height and the profit extremes reach a shard only through
// ξ and the Lemma 5.1 step cap, and the cap only stops a run. A shard
// whose stages all ended below the new cap runs identically under it, so
// replay checks the cap per outcome (maxStageSteps) instead of keying it.
type warmKey struct {
	mode        Mode
	seed        int64
	epsilon     float64
	xi          float64
	singleStage bool
	recordTrace bool
}

// warmKeyFor fingerprints a solve's configuration and the ξ of its plan.
func warmKeyFor(cfg Config, plan *Plan) warmKey {
	return warmKey{
		mode:        cfg.Mode,
		seed:        cfg.Seed,
		epsilon:     cfg.Epsilon,
		xi:          plan.Xi,
		singleStage: cfg.SingleStage,
		recordTrace: cfg.RecordTrace,
	}
}

// warmState is the cache attachment on a Prepared: the configuration the
// outcomes kept on the shards (preShard.out) were recorded under, and the
// counters. The Prepared's mu guards it but enabled, which EnableWarmStart
// sets before the Prepared is shared.
type warmState struct {
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
// on long-lived session state, not on one-shot solves. Like SetRecorder,
// call it before the Prepared is shared.
func (p *Prepared) EnableWarmStart() { p.warm.enabled = true }

// WarmStats reports the Prepared's cumulative warm-start counters.
func (p *Prepared) WarmStats() WarmStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.warm.stats
	st.Enabled = p.warm.enabled
	return st
}

// replay fills outs[s] with the outcome recorded on shards[s], for every
// shard that holds one recorded under key whose stages all ended below
// stepCap, and returns how many it filled. An outcome that reached the cap
// re-runs, and fails as a cold run would. Callers hold the Prepared's mu,
// as they do for record and forget.
func (w *warmState) replay(key warmKey, stepCap int, shards []*preShard, outs []*shardOut) int {
	if !w.recorded || w.key != key {
		return 0
	}
	n := 0
	for s, pre := range shards {
		if pre.out != nil && pre.out.maxStageSteps < stepCap {
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

// forget drops every recorded outcome from replay, after a sharded solve
// that failed part-way: its shards that ran left entries of the shared
// dual that no recorded outcome matches, and the run discards that dual,
// with the replayed shards' entries in it.
func (w *warmState) forget() { w.recorded = false }
