package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/workload"
)

// countingRecorder is a clock-free engine.Recorder for tests: it tallies
// span starts/ends and counter sums, and hands out sequence-numbered tokens
// so it can verify the engine returns each token to the matching phase.
type countingRecorder struct {
	mu      sync.Mutex
	next    int64
	started [engine.NumPhases]int64
	ended   [engine.NumPhases]int64
	open    map[int64]engine.Phase
	counts  [engine.NumCounters]int64
	bad     int
}

func newCountingRecorder() *countingRecorder {
	return &countingRecorder{open: map[int64]engine.Phase{}}
}

func (r *countingRecorder) StartSpan(p engine.Phase) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.started[p]++
	r.open[r.next] = p
	return r.next
}

func (r *countingRecorder) EndSpan(p engine.Phase, token int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ended[p]++
	if got, ok := r.open[token]; !ok || got != p {
		r.bad++
	}
	delete(r.open, token)
}

func (r *countingRecorder) Count(c engine.Counter, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[c] += n
}

// TestRecorderSpansBalanced runs a cold solve and a sharded solve with a
// counting recorder attached and checks the emission protocol: on the
// success path every started span ends exactly once with its own token,
// and the headline counters carry the solve's actual dimensions. A cold
// solve runs the serial engine at every worker count; a sharded solve of
// the fragmented case runs its components on min(workers, components)
// goroutines.
func TestRecorderSpansBalanced(t *testing.T) {
	for name, items := range shardedCases(t, engine.Unit, 3) {
		for _, workers := range []int{1, 4} {
			for _, arm := range []string{"cold", "sharded"} {
				tag := fmt.Sprintf("%s p=%d %s", name, workers, arm)
				rec := newCountingRecorder()
				prep := engine.Prepare(items)
				if arm == "sharded" {
					prep.EnableWarmStart()
				}
				prep.SetRecorder(rec)
				if _, err := prep.Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 3}, workers); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				checkBalanced(t, tag, rec)
				if rec.started[engine.PhaseSolve] != 1 {
					t.Errorf("%s: %d solve spans, want 1", tag, rec.started[engine.PhaseSolve])
				}
				if got := rec.counts[engine.CounterItems]; got != int64(len(items)) {
					t.Errorf("%s: items counter %d, want %d", tag, got, len(items))
				}
				if got := rec.counts[engine.CounterIntraLanes]; got != 1 {
					t.Errorf("%s: intra-lanes counter %d, want 1 per solve", tag, got)
				}
				comps := rec.counts[engine.CounterComponents]
				if done := rec.counts[engine.CounterComponentsReplayed] + rec.counts[engine.CounterComponentsResolved]; done != comps {
					t.Errorf("%s: replayed+resolved %d != components %d", tag, done, comps)
				}
				shards := rec.started[engine.PhaseShardSolve]
				switch {
				case arm == "cold" && (shards != 0 || rec.started[engine.PhaseComponents] != 0 || comps != 0):
					t.Errorf("%s: a cold solve sharded: %d components, %d shard spans", tag, comps, shards)
				case arm == "sharded" && name == "fragmented" && (comps <= 1 || shards != comps):
					t.Errorf("%s: %d components, %d shard spans: the sharded pipeline did not run them all", tag, comps, shards)
				}
				if w := rec.counts[engine.CounterShardWorkers]; w != min(int64(workers), comps) && shards > 0 {
					t.Errorf("%s: shard workers %d, want min(%d, %d)", tag, w, workers, comps)
				}
			}
		}
	}
}

// checkBalanced asserts the recorder's span protocol held: every span
// ended once, with the token its start returned.
func checkBalanced(t *testing.T, tag string, rec *countingRecorder) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.bad != 0 {
		t.Errorf("%s: %d spans ended with a foreign token", tag, rec.bad)
	}
	if len(rec.open) != 0 {
		t.Errorf("%s: %d spans never ended: %v", tag, len(rec.open), rec.open)
	}
	for p := 0; p < engine.NumPhases; p++ {
		if rec.started[p] != rec.ended[p] {
			t.Errorf("%s: phase %v started %d ended %d", tag, engine.Phase(p), rec.started[p], rec.ended[p])
		}
	}
}

// TestRecorderObservesNeverSteers is the recorder half of the determinism
// contract: across seeds × workers, a run with a recorder attached must be
// bitwise identical to the bare run — selections, profit, duals, counters
// and trace — on the cold path and on the sharded pipeline, which the
// fragmented case must really run.
func TestRecorderObservesNeverSteers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for name, items := range shardedCases(t, engine.Unit, seed) {
			cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed, RecordTrace: true}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, arm := range []string{"cold", "sharded"} {
					prepare := engine.Prepare
					if arm == "sharded" {
						prepare = func(items []engine.Item) *engine.Prepared { return sharded(items, nil) }
					}
					bare, err := prepare(items).Solve(cfg, workers)
					if err != nil {
						t.Fatalf("%s seed %d p=%d %s: bare: %v", name, seed, workers, arm, err)
					}
					prep := prepare(items)
					rec := newCountingRecorder()
					prep.SetRecorder(rec)
					attached, err := prep.Solve(cfg, workers)
					if err != nil {
						t.Fatalf("%s seed %d p=%d %s: attached: %v", name, seed, workers, arm, err)
					}
					if !reflect.DeepEqual(attached, bare) {
						t.Errorf("%s seed %d p=%d %s: recorder changed the result:\nbare     %+v\nattached %+v",
							name, seed, workers, arm, bare, attached)
					}
					if arm == "sharded" && name == "fragmented" && rec.started[engine.PhaseShardSolve] == 0 {
						t.Errorf("%s seed %d p=%d: the sharded pipeline did not run", name, seed, workers)
					}
				}
			}
		}
	}
}

// TestRecorderArbitraryHeights covers the §6 wide/narrow split: the
// recorder forwards into both height classes and stays observational, and
// each class gets a PhasePrepare and a PhaseSolve span of its own.
func TestRecorderArbitraryHeights(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 40, Trees: 3, Demands: 48, ProfitRatio: 16,
		Heights: workload.MixedHeights, AccessMin: 1, AccessMax: 1,
	}, 11)
	cfg := engine.Config{Epsilon: 0.1, Seed: 11}
	bare, err := engine.SolveArbitrary(items, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newCountingRecorder()
	attached, err := engine.SolveArbitrary(items, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(attached, bare) {
		t.Errorf("recorder changed the arbitrary-heights result")
	}
	checkBalanced(t, "arbitrary", rec)
	for _, p := range []engine.Phase{engine.PhaseSolve, engine.PhasePrepare} {
		if rec.started[p] != 2 {
			t.Errorf("%d %v spans through the arbitrary-heights path, want one per height class", rec.started[p], p)
		}
	}
}
