package engine

// This file defines the observability seam of the solve path: a nil-safe
// Recorder interface the engine emits phase spans and counters into. The
// engine side is deliberately clock-free — a span is a StartSpan/EndSpan
// pair around a phase, where the token returned by StartSpan is opaque to
// the engine and flows back unchanged — so the deterministic package set
// (lint.DetPackages) stays free of time.Now and the detsource ban holds.
// Timing implementations live outside the set, in internal/obs.
//
// Determinism contract: recorders observe, they never steer. No engine
// branch reads recorder state, and every emission site is guarded by a
// plain nil check, so results are bitwise identical whether a recorder is
// attached or not — pinned by TestRecorderBitwiseEquivalent and the root
// equivalence suite.

// Phase identifies one instrumented segment of the solve path. Phases
// emitted within one solve are disjoint and nested under PhaseSolve (apart
// from PhasePrepare/PhaseUpdate, which callers emit around whole
// operations), so per-phase duration sums bound the solve wall time from
// below.
type Phase uint8

const (
	// PhaseSolve brackets one full Run/RunParallel call. An
	// arbitrary-heights solve brackets each non-empty height class
	// separately, so it emits up to two PhaseSolve spans.
	PhaseSolve Phase = iota
	// PhasePrepare brackets layout + member-list construction (Prepare),
	// emitted by the owners of preparation: the root Solver, Session
	// compaction, and the dist setup.
	PhasePrepare
	// PhaseUpdate brackets one Session.Update: delta validation, instance
	// expansion, and the incremental Apply.
	PhaseUpdate
	// PhaseApply brackets Prepared.Apply — the in-place delta patch.
	PhaseApply
	// PhaseComponents brackets ensureShards when it actually (re)builds
	// the component decomposition and shard relabelings; cached calls
	// emit nothing.
	PhaseComponents
	// PhaseShardSolve brackets one conflict component's first-phase
	// schedule execution (runShard). Replayed components emit nothing —
	// the gap between CounterComponents and PhaseShardSolve's span count
	// is the warm-replay saving.
	PhaseShardSolve
	// PhaseSerialSolve brackets the serial engine's planning (validation
	// and the stage thresholds), first phase and dual scoring (λ and the
	// bound) — the single-graph path every cold solve takes, and a
	// warm-start solve of one component. The sharded path plans outside
	// any phase, and its scoring (the λ fold) sits in PhaseMerge.
	PhaseSerialSolve
	// PhaseMerge brackets mergeShards' deterministic reassembly: stamp
	// sort + grouping before the greedy phase, dual merge + λ fold after
	// it (two segments per merge, disjoint from PhaseGreedy).
	PhaseMerge
	// PhaseGreedy brackets the second phase: greedy selection over the
	// merged (or serial) raise stack.
	PhaseGreedy
	// PhaseDistSetup brackets the distributed runtime's preparation:
	// shared context build and node construction.
	PhaseDistSetup
	// PhaseDistSim brackets the simnet round loop of a distributed run.
	PhaseDistSim
	// PhaseDistAssemble brackets the distributed runtime's result
	// assembly: raise-log collection, greedy selection, dual replay.
	PhaseDistAssemble

	numPhases
)

// NumPhases is the number of distinct Phase values; recorders size their
// per-phase state with it.
const NumPhases = int(numPhases)

var phaseNames = [NumPhases]string{
	"solve", "prepare", "update", "apply", "components", "shard_solve",
	"serial_solve", "merge", "greedy", "dist_setup", "dist_sim",
	"dist_assemble",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Counter identifies one monotonically accumulated solve-path count.
type Counter uint8

const (
	// CounterItems counts items entering solves.
	CounterItems Counter = iota
	// CounterComponents counts conflict components seen by sharded solves.
	CounterComponents
	// CounterComponentsReplayed counts components served verbatim from the
	// warm-start cache instead of re-running their schedule.
	CounterComponentsReplayed
	// CounterComponentsResolved counts components that actually ran their
	// first phase (CounterComponents − CounterComponentsReplayed).
	CounterComponentsResolved
	// CounterShardWorkers accumulates the shard goroutines started per
	// sharded solve: min(workers, components re-run).
	CounterShardWorkers
	// CounterIntraLanes counts 1 per solve: every component runs whole on
	// one goroutine. It stays for the readers of its name (perfbench's
	// engine.intra_lanes).
	CounterIntraLanes

	numCounters
)

// NumCounters is the number of distinct Counter values.
const NumCounters = int(numCounters)

var counterNames = [NumCounters]string{
	"items", "components", "components_replayed", "components_resolved",
	"shard_workers", "intra_lanes",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Recorder observes solve-path phases and counters. Implementations must
// be safe for concurrent use (shard workers emit from their own
// goroutines) and should treat an unmatched StartSpan — a phase abandoned
// by an error return — as simply never recorded: only EndSpan accumulates.
//
// StartSpan returns a token that is opaque to the engine and handed back
// to the matching EndSpan; a timing recorder returns a monotonic reading,
// a counting recorder may return anything. The engine never branches on
// the token or on any recorder state, which is what keeps recorder-attached
// runs bitwise identical to bare ones.
type Recorder interface {
	StartSpan(p Phase) int64
	EndSpan(p Phase, token int64)
	Count(c Counter, n int64)
}

// SetRecorder attaches rec to subsequent runs over this Prepared; nil
// detaches. Attach before sharing the Prepared — SetRecorder must not
// overlap a run, but any number of concurrent runs may emit into the same
// recorder once attached.
func (p *Prepared) SetRecorder(rec Recorder) { p.rec = rec }

// Recorder returns the attached recorder (nil when bare).
func (p *Prepared) Recorder() Recorder { return p.rec }

// SetRecorder attaches rec to both height classes' prepared states.
func (ap *ArbitraryPrepared) SetRecorder(rec Recorder) {
	if ap.wide != nil {
		ap.wide.SetRecorder(rec)
	}
	if ap.narrow != nil {
		ap.narrow.SetRecorder(rec)
	}
}
