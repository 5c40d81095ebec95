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
	// PhaseSolve brackets one Prepared.Solve call. An arbitrary-heights
	// solve brackets each non-empty height class separately, so it emits
	// up to two PhaseSolve spans.
	PhaseSolve Phase = iota
	// PhasePrepare brackets preparation: PrepareRecorded brackets each
	// Prepare (layout + member-list construction) it runs — a root solve's,
	// one per non-empty height class of SolveArbitrary, and a Session's
	// one, when it is created — and a root Solver or Session
	// brackets its item building in a span of its own before it.
	PhasePrepare
	// PhaseUpdate brackets one Session.Update: delta validation, instance
	// expansion, and the incremental Apply.
	PhaseUpdate
	// PhaseApply brackets Prepared.Apply — the in-place delta patch.
	PhaseApply
	// PhaseComponents brackets ensureShards when it actually (re)builds
	// the component decomposition and shard relabelings — after churn,
	// those of the components the churn reached; cached calls emit
	// nothing.
	PhaseComponents
	// PhaseShardSolve brackets one conflict component's first-phase
	// schedule execution (runShard). Replayed components emit nothing —
	// the gap between CounterComponents and PhaseShardSolve's span count
	// is the warm-replay saving.
	PhaseShardSolve
	// PhaseSerialSolve brackets the serial engine's planning (the stage
	// thresholds, from the plan statistics Prepare gathered), first phase
	// and dual scoring (λ and the bound) — the single-graph path every
	// cold solve takes, and a warm-start solve of one component. The
	// sharded path plans outside any phase, and its scoring (the λ fold)
	// sits in PhaseMerge.
	PhaseSerialSolve
	// PhaseMerge brackets mergeShards' deterministic reassembly, one
	// segment before PhaseGreedy: the counting sort of the shard steps
	// into global steps, the λ fold and the sum of the shards' partial
	// dual sums, and the trace merge when a trace is recorded. No global
	// dual is merged.
	PhaseMerge
	// PhaseGreedy brackets the second phase. On the serial path it is the
	// greedy selection over the raise stack. On the sharded path the
	// greedy pass runs per re-run shard inside PhaseShardSolve (replayed
	// shards replay their selection), and PhaseGreedy brackets the merge's
	// profit re-sum and selection collection.
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
	// CounterGreedyTests counts the items a greedy pass visits (one
	// feasibility test each, the pass's raised items), emitted once per
	// pass: by the serial pass, and by each re-run shard. A replayed shard
	// tests nothing.
	CounterGreedyTests
	// CounterComponentItems counts the items a component pass visits,
	// emitted once per pass: every item on a first build, and after churn
	// the items of the components the churn reached.
	CounterComponentItems
	// CounterRelabeledItems counts the items relabeled into shard layouts,
	// emitted once per component pass: the items of its new shards.
	CounterRelabeledItems
	// CounterApplyGroups counts the member-list groups an Apply patches
	// (demand slots and edge indices whose lists lose or gain members),
	// emitted once per Apply.
	CounterApplyGroups
	// CounterPlanItems counts the items read to plan a Prepared's solves,
	// emitted once per pass: by an Apply whose departures took the last
	// holder of a profit or height extreme, which gathers the plan
	// statistics again over every item, and by a solve that falls back to
	// validating the items to name an invalid one. Prepare's own pass is
	// not counted, so an ordinary warm round reads 0.
	CounterPlanItems
	// CounterMemberEntries counts the member-list entries a pass writes,
	// emitted once per pass: every entry of a Prepare that PrepareRecorded
	// brackets, and in an Apply the entries kept by the lists it filters
	// plus those the arrivals append. The backward merge that restores an
	// appended list's order moves entries these counts already hold.
	CounterMemberEntries
	// CounterScanRows counts the first-phase rows whose LHS the
	// satisfaction scan evaluates (scanLive and retest), and
	// CounterScanBetas the β entries those rows read, emitted once per
	// first phase: by the serial engine and by each re-run shard.
	CounterScanRows
	CounterScanBetas
	// CounterMISIters counts the MIS iterations of a first phase, emitted
	// once per first phase as the scan counters are.
	CounterMISIters
	// CounterNodeRounds counts the Round calls the simulator makes on the
	// distributed runtime's nodes, and CounterItemTests the satisfaction
	// tests those nodes make to schedule themselves (NextActiveRound and
	// hasUnsatisfied) and to open a step (beginStep). Each node sums its
	// own, and the run emits the totals once, at assembly.
	CounterNodeRounds
	CounterItemTests

	numCounters
)

// NumCounters is the number of distinct Counter values.
const NumCounters = int(numCounters)

var counterNames = [NumCounters]string{
	"items", "components", "components_replayed", "components_resolved",
	"shard_workers", "intra_lanes", "greedy_tests", "component_items",
	"relabeled_items", "apply_groups", "plan_items", "member_entries",
	"scan_rows", "scan_betas", "mis_iters", "node_rounds", "item_tests",
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
