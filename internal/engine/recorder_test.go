package engine_test

import (
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

// TestRecorderSpansBalanced runs the sharded pipeline with a counting
// recorder attached and checks the emission protocol: on the success path
// every started span ends exactly once with its own token, and the
// headline counters carry the solve's actual dimensions.
func TestRecorderSpansBalanced(t *testing.T) {
	for name, items := range shardedCases(t, engine.Unit, 3) {
		for _, workers := range []int{1, 4} {
			rec := newCountingRecorder()
			prep := engine.Prepare(items)
			prep.SetRecorder(rec)
			if _, err := prep.RunParallel(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 3}, workers); err != nil {
				t.Fatalf("%s p=%d: %v", name, workers, err)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if rec.bad != 0 {
				t.Errorf("%s p=%d: %d spans ended with a foreign token", name, workers, rec.bad)
			}
			if len(rec.open) != 0 {
				t.Errorf("%s p=%d: %d spans never ended: %v", name, workers, len(rec.open), rec.open)
			}
			for p := 0; p < engine.NumPhases; p++ {
				if rec.started[p] != rec.ended[p] {
					t.Errorf("%s p=%d: phase %v started %d ended %d",
						name, workers, engine.Phase(p), rec.started[p], rec.ended[p])
				}
			}
			if rec.started[engine.PhaseSolve] != 1 {
				t.Errorf("%s p=%d: %d solve spans, want 1", name, workers, rec.started[engine.PhaseSolve])
			}
			if got := rec.counts[engine.CounterItems]; got != int64(len(items)) {
				t.Errorf("%s p=%d: items counter %d, want %d", name, workers, got, len(items))
			}
			if comps := rec.counts[engine.CounterComponents]; comps > 0 {
				done := rec.counts[engine.CounterComponentsReplayed] + rec.counts[engine.CounterComponentsResolved]
				if done != comps {
					t.Errorf("%s p=%d: replayed+resolved %d != components %d", name, workers, done, comps)
				}
			}
			if rec.started[engine.PhaseShardSolve] > 0 && rec.counts[engine.CounterShardWorkers] <= 0 {
				t.Errorf("%s p=%d: sharded solve without a shard-worker count", name, workers)
			}
		}
	}
}

// TestRecorderObservesNeverSteers is the recorder half of the determinism
// contract: across seeds × workers, a run with a recorder attached must be
// bitwise identical to the bare run — selections, profit, duals, counters
// and trace.
func TestRecorderObservesNeverSteers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for name, items := range shardedCases(t, engine.Unit, seed) {
			cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed, RecordTrace: true}
			for _, workers := range []int{1, 2, 4, 8} {
				bare, err := engine.RunParallel(items, cfg, workers)
				if err != nil {
					t.Fatalf("%s seed %d p=%d: bare: %v", name, seed, workers, err)
				}
				prep := engine.Prepare(items)
				prep.SetRecorder(newCountingRecorder())
				attached, err := prep.RunParallel(cfg, workers)
				if err != nil {
					t.Fatalf("%s seed %d p=%d: attached: %v", name, seed, workers, err)
				}
				if !reflect.DeepEqual(attached, bare) {
					t.Errorf("%s seed %d p=%d: recorder changed the result:\nbare     %+v\nattached %+v",
						name, seed, workers, bare, attached)
				}
			}
		}
	}
}

// TestRecorderArbitraryHeights covers the §6 wide/narrow split: the
// recorder forwards into both sub-engines and stays observational.
func TestRecorderArbitraryHeights(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 40, Trees: 3, Demands: 48, ProfitRatio: 16,
		Heights: workload.MixedHeights,
	}, 11)
	cfg := engine.Config{Epsilon: 0.1, Seed: 11}
	bare, err := engine.RunArbitraryParallel(items, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := newCountingRecorder()
	prep := engine.PrepareArbitrary(items)
	prep.SetRecorder(rec)
	attached, err := prep.RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(attached, bare) {
		t.Errorf("recorder changed the arbitrary-heights result")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.started[engine.PhaseSolve] == 0 {
		t.Error("no solve spans through the arbitrary-heights path")
	}
	for p := 0; p < engine.NumPhases; p++ {
		if rec.started[p] != rec.ended[p] {
			t.Errorf("phase %v started %d ended %d", engine.Phase(p), rec.started[p], rec.ended[p])
		}
	}
}
