package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"treesched/internal/engine"
)

func TestLogHistogramBuckets(t *testing.T) {
	h := NewLogHistogram(1, 4) // bounds 1, 2, 4, 8 + overflow
	for _, tc := range []struct {
		v      float64
		bucket int
	}{
		{-3, 0}, {0, 0}, {0.5, 0}, {1, 0}, // v ≤ 1
		{1.001, 1}, {2, 1},
		{3, 2}, {4, 2},
		{8, 3},
		{8.1, 4}, {1e9, 4}, {math.Inf(1), 4}, // overflow
	} {
		h := NewLogHistogram(1, 4)
		h.Observe(tc.v)
		s := h.Snapshot()
		if s.Counts[tc.bucket] != 1 {
			t.Errorf("Observe(%g): counts %v, want the 1 in bucket %d", tc.v, s.Counts, tc.bucket)
		}
	}

	h.Observe(math.NaN()) // dropped
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("NaN observed: %+v", s)
	}

	for i := 0; i < 10; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Errorf("count %d, want 10", s.Count)
	}
	if s.Sum != 45 {
		t.Errorf("sum %g, want 45", s.Sum)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("Σcounts %d != Count %d", total, s.Count)
	}
	if len(s.Counts) != len(s.Bounds)+1 {
		t.Errorf("len(Counts)=%d, want len(Bounds)+1=%d", len(s.Counts), len(s.Bounds)+1)
	}
}

func TestNewLogHistogramPanics(t *testing.T) {
	for _, tc := range []struct {
		base    float64
		buckets int
	}{{0, 4}, {-1, 4}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLogHistogram(%g, %d) did not panic", tc.base, tc.buckets)
				}
			}()
			NewLogHistogram(tc.base, tc.buckets)
		}()
	}
}

func TestStandardLayouts(t *testing.T) {
	lat := NewLatencyHistogram().Snapshot()
	if len(lat.Bounds) != 22 || lat.Bounds[0] != 1e-5 {
		t.Errorf("latency layout: %v", lat.Bounds)
	}
	size := NewSizeHistogram().Snapshot()
	if len(size.Bounds) != 12 || size.Bounds[0] != 1 || size.Bounds[11] != 2048 {
		t.Errorf("size layout: %v", size.Bounds)
	}
}

func TestRecorderReportAndTake(t *testing.T) {
	r := NewRecorder()
	tok := r.StartSpan(engine.PhaseSolve)
	time.Sleep(time.Millisecond)
	r.EndSpan(engine.PhaseSolve, tok)
	tok = r.StartSpan(engine.PhaseMerge)
	r.EndSpan(engine.PhaseMerge, tok)
	r.StartSpan(engine.PhaseGreedy) // abandoned: must not appear
	r.Count(engine.CounterItems, 40)
	r.Count(engine.CounterComponents, 6)
	r.Count(engine.CounterComponentsReplayed, 4)
	r.Count(engine.CounterComponentsResolved, 2)
	r.Count(engine.CounterGreedyTests, 17)

	rep := r.Report()
	if rep.Solves != 1 {
		t.Errorf("solves %d, want 1", rep.Solves)
	}
	if rep.Wall <= 0 {
		t.Errorf("wall %v, want > 0", rep.Wall)
	}
	if rep.PhaseTotal(engine.PhaseSolve) != rep.Wall {
		t.Errorf("PhaseTotal(solve) %v != wall %v", rep.PhaseTotal(engine.PhaseSolve), rep.Wall)
	}
	if rep.PhaseTotal(engine.PhaseGreedy) != 0 {
		t.Error("abandoned span accumulated")
	}
	if len(rep.Phases) != 2 {
		t.Errorf("phases %+v, want solve and merge only", rep.Phases)
	}
	if rep.Items != 40 || rep.Components != 6 || rep.GreedyTests != 17 {
		t.Errorf("counters: %+v", rep)
	}
	if got := rep.WarmHitRatio(); got != 4.0/6.0 {
		t.Errorf("warm hit ratio %v, want 2/3", got)
	}

	// Take returns the same window, then resets.
	took := r.Take()
	if took.Solves != 1 || took.Items != 40 {
		t.Errorf("take: %+v", took)
	}
	empty := r.Report()
	if empty.Solves != 0 || empty.Items != 0 || len(empty.Phases) != 0 {
		t.Errorf("report after take: %+v", empty)
	}
	if empty.WarmHitRatio() != 0 {
		t.Errorf("warm ratio on empty report: %v", empty.WarmHitRatio())
	}

	// Reports marshal cleanly (they are embedded in /debug/vars and bench
	// trace output).
	if _, err := json.Marshal(took); err != nil {
		t.Fatalf("marshal report: %v", err)
	}
}

// TestRecorderOutOfRange pins the defensive bounds checks: a corrupt phase
// or counter index must be ignored, not panic or scribble.
func TestRecorderOutOfRange(t *testing.T) {
	r := NewRecorder()
	r.EndSpan(engine.Phase(200), 0)
	r.Count(engine.Counter(200), 5)
	rep := r.Report()
	if len(rep.Phases) != 0 || rep.Items != 0 {
		t.Errorf("out-of-range emission accumulated: %+v", rep)
	}
}

// TestConcurrentEmission hammers one recorder and one histogram from many
// goroutines while snapshots are taken; run under -race this is the
// thread-safety proof, and the final totals must balance exactly.
func TestConcurrentEmission(t *testing.T) {
	r := NewRecorder()
	h := NewLatencyHistogram()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tok := r.StartSpan(engine.PhaseShardSolve)
				r.EndSpan(engine.PhaseShardSolve, tok)
				r.Count(engine.CounterComponents, 1)
				h.Observe(float64(w*per+i) * 1e-6)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Report()
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	rep := r.Report()
	if rep.Components != workers*per {
		t.Errorf("components %d, want %d", rep.Components, workers*per)
	}
	if rep.PhaseTotal(engine.PhaseShardSolve) < 0 {
		t.Error("negative accumulated duration")
	}
	var spans int64
	for _, ps := range rep.Phases {
		spans += ps.Spans
	}
	if spans != workers*per {
		t.Errorf("spans %d, want %d", spans, workers*per)
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("histogram count %d, want %d", s.Count, workers*per)
	}
}
