// Package obs is the timing side of the solve-path observability seam: the
// engine (and dist, Session, Solver) emit clock-free phase spans and
// counters into the nil-safe engine.Recorder interface, and this package
// supplies the implementation that actually reads a clock, plus the
// fixed-bucket histograms the serving layer exports.
//
// The split is what keeps the determinism lints airtight: every package in
// lint.DetPackages is banned from time.Now by schedvet's detsource
// analyzer, so timing lives out here, outside the equivalence closure —
// obs imports engine, never the other way around. Recorders observe and
// never steer: no engine branch reads recorder state, so results are
// bitwise identical with or without one attached (pinned by the engine and
// root equivalence suites).
package obs

import (
	"sync/atomic"
	"time"

	"treesched/internal/engine"
)

// Recorder implements engine.Recorder over a monotonic clock, accumulating
// per-phase durations and span counts plus the engine's counters. All
// methods are safe for concurrent use (shard workers emit from their own
// goroutines); a span abandoned on an error path (StartSpan without
// EndSpan) is simply never accumulated, since only EndSpan writes.
type Recorder struct {
	base     time.Time
	phases   [engine.NumPhases]phaseAcc
	counters [engine.NumCounters]atomic.Int64
}

type phaseAcc struct {
	ns    atomic.Int64
	spans atomic.Int64
}

// NewRecorder returns a Recorder ready to attach via Options.Recorder,
// engine SetRecorder, or dist.Options.Recorder.
func NewRecorder() *Recorder {
	return &Recorder{base: time.Now()}
}

// StartSpan returns the current monotonic reading; the engine hands it
// back to EndSpan unchanged.
func (r *Recorder) StartSpan(engine.Phase) int64 {
	return int64(time.Since(r.base))
}

// EndSpan accumulates one completed span of p.
func (r *Recorder) EndSpan(p engine.Phase, token int64) {
	if int(p) >= len(r.phases) {
		return
	}
	d := int64(time.Since(r.base)) - token
	if d < 0 {
		d = 0
	}
	r.phases[p].ns.Add(d)
	r.phases[p].spans.Add(1)
}

// Count accumulates n into counter c.
func (r *Recorder) Count(c engine.Counter, n int64) {
	if int(c) >= len(r.counters) {
		return
	}
	r.counters[c].Add(n)
}

// PhaseStat is one phase's aggregate over a report window.
type PhaseStat struct {
	Phase string        `json:"phase"`
	Spans int64         `json:"spans"`
	Total time.Duration `json:"total_ns"`
}

// SolveReport is a snapshot of everything a Recorder accumulated: phase
// durations and span counts, and the solve-path counters. Within one
// solve the engine's phases are disjoint and nested under the solve span,
// so the non-solve phase totals sum to at most Wall; the gap is
// uninstrumented work (a sharded solve's plan resolution and validation,
// the recorder calls themselves).
type SolveReport struct {
	// Solves and Wall aggregate the PhaseSolve spans: one per
	// Prepared.Solve call (an arbitrary-heights solve contributes one per
	// non-empty height class).
	Solves int64         `json:"solves"`
	Wall   time.Duration `json:"wall_ns"`
	// Phases lists every phase with at least one completed span, in
	// declaration (schedule) order, including PhaseSolve itself.
	Phases []PhaseStat `json:"phases"`

	Items              int64 `json:"items"`
	Components         int64 `json:"components"`
	ComponentsReplayed int64 `json:"components_replayed"`
	ComponentsResolved int64 `json:"components_resolved"`
	// ShardWorkers accumulates the shard goroutines started per sharded
	// solve. IntraLanes accumulates 1 per solve (every component runs on
	// one goroutine); divide either by Solves for the mean.
	ShardWorkers int64 `json:"shard_workers"`
	IntraLanes   int64 `json:"intra_lanes"`
	// GreedyTests counts the items greedy passes visited: every raised
	// item of a serial solve, and of each shard a sharded solve re-ran.
	GreedyTests int64 `json:"greedy_tests"`
}

// PhaseTotal returns the accumulated duration of one phase.
func (rep *SolveReport) PhaseTotal(p engine.Phase) time.Duration {
	name := p.String()
	for _, ps := range rep.Phases {
		if ps.Phase == name {
			return ps.Total
		}
	}
	return 0
}

// WarmHitRatio returns the fraction of components served from the
// warm-start cache (0 when no sharded solve ran).
func (rep *SolveReport) WarmHitRatio() float64 {
	if rep.Components == 0 {
		return 0
	}
	return float64(rep.ComponentsReplayed) / float64(rep.Components)
}

// Report snapshots the accumulated state without resetting it. Concurrent
// emissions may land between field reads; each individual value is
// consistent.
func (r *Recorder) Report() SolveReport {
	var rep SolveReport
	for p := 0; p < engine.NumPhases; p++ {
		spans := r.phases[p].spans.Load()
		if spans == 0 {
			continue
		}
		total := time.Duration(r.phases[p].ns.Load())
		rep.Phases = append(rep.Phases, PhaseStat{
			Phase: engine.Phase(p).String(),
			Spans: spans,
			Total: total,
		})
		if engine.Phase(p) == engine.PhaseSolve {
			rep.Solves = spans
			rep.Wall = total
		}
	}
	rep.Items = r.counters[engine.CounterItems].Load()
	rep.Components = r.counters[engine.CounterComponents].Load()
	rep.ComponentsReplayed = r.counters[engine.CounterComponentsReplayed].Load()
	rep.ComponentsResolved = r.counters[engine.CounterComponentsResolved].Load()
	rep.ShardWorkers = r.counters[engine.CounterShardWorkers].Load()
	rep.IntraLanes = r.counters[engine.CounterIntraLanes].Load()
	rep.GreedyTests = r.counters[engine.CounterGreedyTests].Load()
	return rep
}

// Take returns Report() and resets the accumulators, delimiting a report
// window. Not atomic against concurrent emitters: a span landing between
// the snapshot and the reset is dropped — take windows between solves.
func (r *Recorder) Take() SolveReport {
	rep := r.Report()
	r.Reset()
	return rep
}

// Reset zeroes every accumulator.
func (r *Recorder) Reset() {
	for p := range r.phases {
		r.phases[p].ns.Store(0)
		r.phases[p].spans.Store(0)
	}
	for c := range r.counters {
		r.counters[c].Store(0)
	}
}

// Nop is a no-op engine.Recorder: the cheapest possible implementation,
// used to measure the cost of the seam itself (`schedbench
// -recorder-gate`, run in CI).
type Nop struct{}

func (Nop) StartSpan(engine.Phase) int64 { return 0 }
func (Nop) EndSpan(engine.Phase, int64)  {}
func (Nop) Count(engine.Counter, int64)  {}

var _ engine.Recorder = (*Recorder)(nil)
var _ engine.Recorder = Nop{}
