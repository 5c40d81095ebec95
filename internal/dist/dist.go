// Package dist executes the paper's distributed algorithm over the
// synchronous message-passing simulator of package simnet: one processor
// per demand, following the fixed epoch/stage/step schedule of Figure 7
// with Luby-MIS step elections.
//
// # Shared protocol core, shared layout
//
// The protocol logic itself — dual raises, LHS coefficients, threshold
// checks, the β-replay of announced raises, and the phase-2 greedy pop —
// lives in engine's processor-local Core (engine.Core, engine.BetaGain,
// engine.Prepared.SelectGreedy). Both the in-process engine and the nodes
// here funnel every dual mutation and every satisfaction test through that
// one implementation, and both draw Luby priorities from identical
// per-owner splitmix64 streams (engine.NewStream) in identical order, so
// for the same (items, Config) the two executions are bit-identical: same
// raises, same δ values, same elections, same Selected set, same Profit,
// same λ and dual bound. Experiment A3 and the package's equivalence tests
// assert exactly this, and pin the simulator's Stats for each case in
// testdata/stats.golden.
//
// Since PR 9 the nodes share the engine's read-only interned dense layout
// (engine.Prepared) through a runContext instead of copying critical sets
// and conflict maps per processor; see doc.go's "Distributed scale"
// section for the invariants and the accounting
// (Result.NodeStateBytes/SharedStateBytes).
//
// # Fixed synchronous schedule
//
// Every processor derives the schedule locally from common knowledge (the
// engine.Plan: ε, ∆, thresholds, step cap, number of epochs — quantities
// the paper assumes are globally known): round 0 is a setup broadcast in
// which each processor announces its demand instances to the processors it
// conflicts with; then each of the T = MaxGroup·Stages·StepCap steps
// occupies exactly 2B+1 rounds, where B = LubyBudgetFor(n) is the per-step
// Luby iteration budget — two rounds per election iteration (exchange
// draws; announce winners and their raises) plus one settle round in which
// the final announcements land. The schedule length is therefore
// 1 + T·(2B+1) rounds (ScheduleRounds), independent of the input's
// randomness.
//
// # Round accounting
//
// ScheduleRounds is the honest synchronous-round cost: the full fixed
// schedule every processor sits through, matching the round bounds of
// Theorems 5.3/7.1. Stats.Rounds equals it — the simulator counts every
// scheduled round, including the idle ones it fast-forwards over
// (Stats.SkippedRounds) because no processor would send or mutate state in
// them. Stats.BusyRounds counts only rounds that actually moved a message,
// and is the interesting "how much of the schedule was live" measure
// reported by experiment E12.
package dist

import (
	"fmt"
	"slices"

	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/simnet"
)

// Options tunes RunOpts beyond the engine Config.
type Options struct {
	// Workers bounds the simulator's stepping pool; ≤0 means GOMAXPROCS.
	// Cannot affect results, only wall-clock.
	Workers int
	// Recorder observes the run's phases — PhaseDistSetup (context build +
	// node construction), PhaseDistSim (the simnet round loop),
	// PhaseDistAssemble (raise-log assembly, selection, dual replay) — and
	// nothing else; like every recorder attachment it cannot affect
	// results. dist itself never reads a clock (it is in the deterministic
	// package set); timing lives in the recorder implementation
	// (internal/obs).
	Recorder engine.Recorder
}

// Result reports a distributed run.
type Result struct {
	Selected []int   // item IDs chosen by the second phase, ascending
	Profit   float64 // Σ profit of selected items

	Lambda float64          // measured slackness of the replayed global dual
	Bound  float64          // weak-duality upper bound Value/λ
	Dual   *dual.Assignment // global dual replayed from the raise history
	Trace  *engine.Trace    // phase-1 raise history; nil unless Config.RecordTrace

	Stats          simnet.Stats // honest communication costs
	Processors     int          // number of processor nodes (= demands with items)
	ScheduleRounds int          // fixed schedule length 1 + T·(2B+1)
	Plan           *engine.Plan // the locally-derived schedule
	LubyBudget     int          // B, per-step Luby iteration budget

	NodeStateBytes   int64 // Σ resident private state over all nodes (peak capacities)
	SharedStateBytes int64 // read-only context arenas shared by all nodes
}

// Run executes the protocol over the simulator and returns the selection,
// which is bit-identical to the engine's (engine.Prepare(items).Solve(cfg,
// 1)) for the same items and Config.
func Run(items []engine.Item, cfg engine.Config) (*Result, error) {
	return RunOpts(items, cfg, Options{})
}

// RunOpts is Run with a worker budget and a recorder.
func RunOpts(items []engine.Item, cfg engine.Config, opts Options) (*Result, error) {
	plan, err := engine.PlanFor(items, &cfg)
	if err != nil {
		return nil, err
	}
	if cfg.MIS != engine.LubyMIS {
		return nil, fmt.Errorf("dist: only the Luby MIS subroutine has a distributed implementation")
	}
	budget := LubyBudgetFor(len(items))
	res := &Result{Plan: plan, LubyBudget: budget, ScheduleRounds: ScheduleLength(plan.TotalSteps(), budget)}
	if len(items) == 0 {
		res.ScheduleRounds = 1
		return res, nil
	}

	rec := opts.Recorder
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(engine.PhaseDistSetup)
	}
	prep := engine.Prepare(items)
	ctx := buildContext(prep, cfg, plan, budget)
	nodes := ctx.newNodes()
	res.Processors = len(nodes)

	simNodes := make([]simnet.Node, len(nodes))
	for i, n := range nodes {
		simNodes[i] = n
	}
	nw, err := simnet.New(simNodes, ctx.topology)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.EndSpan(engine.PhaseDistSetup, tok)
		tok = rec.StartSpan(engine.PhaseDistSim)
	}
	res.Stats, err = nw.Run(res.ScheduleRounds+2, simnet.BatchConfig{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.EndSpan(engine.PhaseDistSim, tok)
		tok = rec.StartSpan(engine.PhaseDistAssemble)
	}

	steps, trace := assembleSteps(ctx, nodes, cfg.RecordTrace)
	res.Selected, res.Profit = prep.SelectGreedy(cfg.Mode, steps)
	res.Dual, res.Lambda, res.Bound = prep.ReplayDual(cfg.Mode, steps)
	res.Trace = trace
	rounds, tests := 0, 0
	for _, n := range nodes {
		res.NodeStateBytes += n.stateBytes()
		rounds += n.rounds
		tests += n.tests
	}
	res.SharedStateBytes = ctx.sharedBytes
	if rec != nil {
		rec.Count(engine.CounterNodeRounds, int64(rounds))
		rec.Count(engine.CounterItemTests, int64(tests))
		rec.EndSpan(engine.PhaseDistAssemble, tok)
	}
	return res, nil
}

// assembleSteps reconstructs the global raise history from the nodes' local
// logs — ordered by flat step index, item ids ascending within a step,
// exactly the stack the engine pushes — via a counting sort over the fixed
// schedule's T step buckets (no maps, one pass per node log). With
// wantTrace it also rebuilds the engine's trace: events carry the 1-based
// rank of their step among non-empty steps (the engine's Steps counter at
// raise time) and the δ each raise produced.
func assembleSteps(ctx *runContext, nodes []*node, wantTrace bool) ([][]int, *engine.Trace) {
	total := 0
	counts := make([]int32, ctx.totalSteps)
	for _, n := range nodes {
		total += len(n.raises)
		for _, r := range n.raises {
			counts[r.Step]++
		}
	}
	off := make([]int32, ctx.totalSteps+1)
	for t, c := range counts {
		off[t+1] = off[t] + c
	}
	flat := make([]raiseRec, total)
	cur := slices.Clone(off[:ctx.totalSteps])
	for _, n := range nodes {
		for _, r := range n.raises {
			flat[cur[r.Step]] = r
			cur[r.Step]++
		}
	}
	itemArena := make([]int, total)
	var steps [][]int
	var trace *engine.Trace
	if wantTrace {
		trace = &engine.Trace{Events: make([]engine.RaiseEvent, 0, total)}
	}
	for t := 0; t < ctx.totalSteps; t++ {
		seg := flat[off[t]:off[t+1]]
		if len(seg) == 0 {
			continue
		}
		slices.SortFunc(seg, func(a, b raiseRec) int { return int(a.Item) - int(b.Item) })
		ids := itemArena[off[t]:off[t]:off[t+1]]
		for _, r := range seg {
			ids = append(ids, int(r.Item))
		}
		steps = append(steps, ids)
		if wantTrace {
			for _, r := range seg {
				trace.Events = append(trace.Events, engine.RaiseEvent{Step: len(steps), Item: int(r.Item), Delta: r.Delta})
			}
		}
	}
	return steps, trace
}
