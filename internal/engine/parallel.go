package engine

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"treesched/internal/dual"
)

// This file implements the sharded solve pipeline, the execution a
// warm-start Prepared (a Session's) runs so that it can replay components.
// The conflict graph of §2 decomposes into connected components that never
// exchange messages: items in different components share no demand and no
// edge, so their dual variables are disjoint, their raise rules never read
// each other's state, and — because priorities come from per-owner PRNG
// streams (NewStream) and every item of a demand lives in one component —
// their Luby draws are shard-independent. The pipeline therefore runs the
// full epoch/stage/step schedule per component on a worker pool and
// reassembles the global serial execution exactly:
//
//   - a serial step at schedule position (epoch, stage, iter) raises the
//     union over components of the items each component raises at that same
//     position, so ordering the shard steps by position — a counting sort
//     on the flat step index, ties to the lower shard — reproduces the
//     serial stack bit for bit;
//   - a serial Luby election runs until every active component is decided,
//     with decided vertices drawing nothing, so the serial iteration count
//     at a position is the max over the shards active there;
//   - the greedy second phase decides an item by its own demand's and path
//     edges' usage, all inside its component, so each shard's greedy pass
//     over its own stack selects the serial selection restricted to the
//     shard, and the merge re-sums the profit in the serial pop order,
//     which a counting sort of the selection by global step yields;
//   - the shards' duals are disjoint and together hold every nonzero α and
//     β of the serial dual, so the min of their λ minima is the serial λ,
//     and the exact sum of their partial sums (dual.Sum, kept with each
//     shard's outcome) rounds to the serial dual value: the same bound,
//     with no global α/β built. A caller that wants the dual itself asks
//     for it (Result.mergedDual), and only then is it assembled.
//
// The result is bit-identical to the serial engine's for every worker
// count. Because each
// shard's execution is self-contained, it is also replayable: with the
// warm-start cache enabled (warm.go), shards untouched by churn reuse their
// previous outcome instead of re-running the schedule.
//
// Replay is the only reason to shard. A cold solve has nothing to replay,
// and splitting one has not paid at any size measured on 2 vCPUs: the
// component pass, a relabeled layout per shard and the merge cost more
// than the first phase the shards run in parallel (doc.go, "Component
// shards"). Without the cache, Solve runs the serial engine.

// shardOut is one conflict component's completed execution: exactly what
// mergeShards consumes and nothing transient — the raise stack with
// schedule stamps, the greedy selection, the shard-local dense dual
// assignment with its exact partial sum, the trace (when recorded), and
// the per-shard counters. The warm-start cache retains these across
// solves and replays them verbatim for untouched components, so a shardOut
// must never alias pooled scratch, and nothing reads it mutably once
// recorded.
type shardOut struct {
	pre           *preShard
	stack         []step
	dual          *dual.Assignment
	sum           dual.Sum // every nonzero α and β of dual, added exactly
	trace         *Trace
	lambda        float64 // min(1, min LHS/p) over this shard's items
	raised        int
	maxStageSteps int

	// sel[pos] lists, as ascending global item ids, the items of stack
	// position pos that the shard's greedy pass selected.
	sel [][]int
}

// Solve runs the schedule over the prepared state; it is the engine's one
// solve entry. With the warm-start cache off (the default) it runs the
// serial engine, whatever workers is, and Solve(cfg, 1) is the bitwise
// reference. With the cache on it runs the sharded pipeline, replaying the
// components churn did not touch and re-running the rest on
// min(workers, runnable components) goroutines; workers < 1 resolves to
// runtime.GOMAXPROCS(0), matching Options.Parallelism at the root. It
// still runs the serial engine when the instance is one component, or the
// last decomposition found one: a single shard would be the serial
// execution plus a merge. Every path returns the serial Result bit for bit.
func (p *Prepared) Solve(cfg Config, workers int) (res *Result, err error) {
	if rec := p.rec; rec != nil {
		tok := rec.StartSpan(PhaseSolve)
		rec.Count(CounterItems, int64(len(p.items)))
		defer func() {
			if err == nil {
				rec.EndSpan(PhaseSolve, tok)
			}
		}()
	}
	if !p.warm.on() {
		return p.runSerial(cfg)
	}
	shard := false
	if !p.knownSingleComponent() {
		p.ensureShards()
		shard = len(p.comps) > 1
	}
	if !shard {
		res, err = p.runSerial(cfg)
		if err == nil {
			p.warm.noteCold()
		}
		return res, err
	}
	plan, err := p.plan(&cfg) // resolves ξ and defaults globally
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs, err := p.runShards(cfg, plan, workers)
	if err != nil {
		return nil, err
	}
	return p.mergeShards(cfg, plan, outs)
}

// RunParallel is Solve.
//
// Deprecated: use Solve.
func (p *Prepared) RunParallel(cfg Config, workers int) (*Result, error) {
	return p.Solve(cfg, workers)
}

// runShard executes one component's first phase over (pooled) scratch,
// pops its stack through the greedy rule, and captures the outcome with
// its dual's λ minimum and exact partial sum. With rec attached it runs
// in a PhaseShardSolve span and counts its work.
func runShard(pre *preShard, cfg Config, plan *Plan, scr *solveScratch, rec Recorder) (*shardOut, error) {
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseShardSolve)
	}
	st := newState(pre.lay, cfg, plan, scr)
	res := &Result{Dual: st.core.Dual, Trace: st.trace}
	scan, err := st.firstPhase(res)
	if err != nil {
		return nil, err
	}
	out := &shardOut{
		pre:           pre,
		stack:         st.stack,
		dual:          st.core.Dual,
		trace:         st.trace,
		lambda:        st.core.lambdaOnly(pre.lay.views),
		raised:        res.Raised,
		maxStageSteps: res.MaxStageSteps,
	}
	out.dual.AddTo(&out.sum)
	out.sum.Carry() // every merge of the cached partial then adds it as is
	// The serial pop order restricted to this shard: steps last to first,
	// local ids ascending within a step, which comp maps to ascending
	// global ids.
	g := newGreedy(pre.lay.views, cfg.Mode, pre.lay.demands, pre.lay.edges)
	picked := make([]int, 0, out.raised) // never reallocates: sel aliases it
	out.sel = make([][]int, len(out.stack))
	for pos := len(out.stack) - 1; pos >= 0; pos-- {
		start := len(picked)
		picked = g.take(out.stack[pos].items, picked)
		for i := start; i < len(picked); i++ {
			picked[i] = pre.comp[picked[i]]
		}
		out.sel[pos] = picked[start:len(picked):len(picked)]
	}
	if rec != nil {
		countWork(rec, scan, res)
		rec.EndSpan(PhaseShardSolve, tok)
	}
	return out, nil
}

// runShards produces every shard's first-phase outcome: cached outcomes are
// replayed for shards whose preShard survived since the last solve under
// the same configuration, the rest run on min(workers, runnable) goroutines
// with per-worker pooled scratch. The full outcome set is recorded for the
// next round.
func (p *Prepared) runShards(cfg Config, plan *Plan, workers int) ([]*shardOut, error) {
	key := warmKeyFor(&cfg, plan)
	outs := make([]*shardOut, len(p.shards))
	todo := make([]int, 0, len(p.shards)-p.warm.replay(key, p.shards, outs))
	for s, out := range outs {
		if out == nil {
			todo = append(todo, s)
		}
	}
	rec := p.rec
	if rec != nil {
		rec.Count(CounterComponents, int64(len(p.shards)))
		rec.Count(CounterComponentsReplayed, int64(len(p.shards)-len(todo)))
		rec.Count(CounterComponentsResolved, int64(len(todo)))
		rec.Count(CounterIntraLanes, 1)
	}

	if len(todo) > 0 {
		errs := make([]error, len(todo))
		// One goroutine per runnable component, up to workers. The count is a
		// pure performance knob: each shard's outcome is bitwise fixed.
		compWorkers := min(workers, len(todo))
		if rec != nil {
			rec.Count(CounterShardWorkers, int64(compWorkers))
		}
		if compWorkers <= 1 {
			scr := scratchPool.Get().(*solveScratch)
			for i, s := range todo {
				outs[s], errs[i] = runShard(p.shards[s], cfg, plan, scr, rec)
			}
			scratchPool.Put(scr)
		} else {
			work := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < compWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scr := scratchPool.Get().(*solveScratch)
					defer scratchPool.Put(scr)
					for i := range work {
						outs[todo[i]], errs[i] = runShard(p.shards[todo[i]], cfg, plan, scr, rec)
					}
				}()
			}
			for i := range todo {
				work <- i
			}
			close(work)
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	p.warm.record(key, p.shards, outs, len(p.shards)-len(todo))
	return outs, nil
}

// stamped is one shard step: position pos of shard shard's stack, whose
// schedule stamp (epoch, stage, iter) has flat step index step.
type stamped struct{ step, shard, pos int }

// mergeScratch pools mergeShards' transient state, all of it sized by the
// plan's flat steps, the shard steps or the items: the counting sort's
// step counts and occupancy bitset (both zero between merges), the shard
// steps in schedule order and their grouping into global steps, and the
// selection's step per item, per-step offsets and pop order. Nothing in
// it survives the merge — the groups are consumed by the profit re-sum and
// the trace merge, both inside mergeShards — so steady-state re-merges
// (the warm replay path runs one every solve) allocate next to nothing.
type mergeScratch struct {
	count   []int32  // per flat step: shard steps there, then their offset
	occ     []uint64 // flat steps with a shard step
	all     []stamped
	perStep [][]stamped
	selStep []int32 // per selected item: its global step
	selOff  []int32 // per global step: its offset in pop
	pop     []int
	marks   []uint64
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// mergeShards reassembles the serial execution from per-shard outcomes:
// it counting-sorts the shard steps by flat step index into global steps,
// scores the dual from the shards' λ minima and exact partial sums, and
// re-sums the shards' selections in the serial pop order. It builds no
// global dual and sorts nothing by comparison: the Result keeps the
// outcomes, for mergedDual.
//
//schedvet:hot
func (p *Prepared) mergeShards(cfg Config, plan *Plan, outs []*shardOut) (*Result, error) {
	res := &Result{
		Delta:  plan.Delta,
		Epochs: plan.MaxGroup,
		Stages: plan.Stages,
		shards: outs,
		ix:     p.lay.ix,
	}

	// PhaseMerge is one segment, before PhaseGreedy, so the per-phase
	// durations of one solve never overlap.
	rec := p.rec
	var mtok int64
	if rec != nil {
		mtok = rec.StartSpan(PhaseMerge)
	}

	scr := mergePool.Get().(*mergeScratch)

	// A counting sort by flat step index lists every shard step in serial
	// schedule order: count the shard steps at each index, give each
	// occupied index, in the order the occupancy bitset yields them, its
	// offset, and place the shards in index order, so that within a step
	// the lower shard comes first.
	steps := plan.TotalSteps()
	count := extend(&scr.count, steps, 0)
	occ := extend(&scr.occ, (steps+63)/64, 0)[:(steps+63)/64]
	total := 0
	for _, out := range outs {
		res.Raised += out.raised
		if out.maxStageSteps > res.MaxStageSteps {
			res.MaxStageSteps = out.maxStageSteps
		}
		for pos := range out.stack {
			st := &out.stack[pos]
			t := plan.stepIndex(st.epoch, st.stage, st.iter)
			count[t]++
			occ[t>>6] |= 1 << (t & 63)
		}
		total += len(out.stack)
	}
	all := slices.Grow(scr.all[:0], total)[:total]
	perStep := scr.perStep[:0]
	off := int32(0)
	for w, word := range occ {
		for ; word != 0; word &= word - 1 {
			t := w<<6 | bits.TrailingZeros64(word)
			c := count[t]
			count[t] = off
			perStep = append(perStep, all[off:off+c:off+c])
			off += c
		}
		occ[w] = 0
	}
	for s, out := range outs {
		for pos := range out.stack {
			st := &out.stack[pos]
			t := plan.stepIndex(st.epoch, st.stage, st.iter)
			all[count[t]] = stamped{t, s, pos}
			count[t]++
		}
	}
	scr.all, scr.perStep = all, perStep

	// The serial step at a stamp raises the union of the shard steps there
	// and spends max-over-shards Luby iterations electing it.
	for _, group := range perStep {
		count[group[0].step] = 0
		iters := 0
		for _, r := range group {
			iters = max(iters, outs[r.shard].stack[r.pos].misIters)
		}
		res.MISIters += iters
	}
	res.Steps = len(perStep)
	res.CommRounds = 2*res.MISIters + 2*res.Steps

	// Score the dual. The components partition the dual variables, so
	// λ is the min of the shards' cached minima (order-independent and
	// arithmetic-free), and the dual value is the exact sum of their
	// cached partial sums, which rounds to the bits of the merged dual's
	// Value in any grouping. Replayed shards cost one min and one merge.
	if len(p.items) > 0 {
		lambda := 1.0
		for _, out := range outs {
			if out.lambda < lambda {
				lambda = out.lambda
			}
		}
		res.Lambda = lambda
		if lambda <= 0 {
			res.Bound = math.Inf(1)
		} else {
			var sum dual.Sum
			for _, out := range outs {
				sum.Merge(&out.sum)
			}
			res.Bound = sum.Round() / lambda
		}
	}
	if cfg.RecordTrace {
		res.Trace = mergeTraces(outs, perStep)
	}

	// The shards ran the greedy pass. A stable counting sort of the
	// selection by global step gives the serial pop order — global steps
	// last to first, ids ascending within a step — the serial pass's own
	// sequence of additions, over which the profit is re-summed: each
	// selected id notes its step while setting its bit, and one scan of
	// the bitset writes Selected, ascending, and the pop order together.
	var gtok int64
	if rec != nil {
		rec.EndSpan(PhaseMerge, mtok)
		gtok = rec.StartSpan(PhaseGreedy)
	}
	marks := extend(&scr.marks, (len(p.items)+63)/64, 0)[:(len(p.items)+63)/64]
	selStep := extend(&scr.selStep, len(p.items), 0)
	selOff := extend(&scr.selOff, len(perStep), 0)
	selected := int32(0)
	for g := len(perStep) - 1; g >= 0; g-- {
		selOff[g] = selected
		for _, r := range perStep[g] {
			for _, id := range outs[r.shard].sel[r.pos] {
				marks[id>>6] |= 1 << (id & 63)
				selStep[id] = int32(g)
				selected++
			}
		}
	}
	if selected > 0 {
		res.Selected = make([]int, 0, selected)
	}
	pop := slices.Grow(scr.pop[:0], int(selected))[:selected]
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			res.Selected = append(res.Selected, id)
			g := selStep[id]
			pop[selOff[g]] = id
			selOff[g]++
		}
		marks[w] = 0
	}
	for _, id := range pop {
		res.Profit += p.lay.views[id].Profit
	}
	scr.pop = pop
	// The scratch goes back only from here: a merge that panics leaves
	// its counts set, and its scratch must not be reused.
	//schedvet:ok hotpath boxing a pointer allocates nothing; one Put per merge, not per item
	mergePool.Put(scr)
	if rec != nil {
		rec.EndSpan(PhaseGreedy, gtok)
	}
	return res, nil
}

// mergedDual returns the solve's dual assignment: Dual, or, for a sharded
// solve, which builds no global dual, a fresh assignment over the global
// index holding every shard's α and β, copied through the slot
// translations relabel recorded. It reads the Prepared's live index, so it
// is valid until the next Apply, which may give a departed demand's slot
// to an arrival. Engine tests read it through MergedDual.
func (r *Result) mergedDual() *dual.Assignment {
	if r.Dual != nil || r.ix == nil {
		return r.Dual
	}
	d := dual.NewWithIndex(r.ix)
	for _, out := range r.shards {
		d.MergeSlots(out.dual, out.pre.gslot, out.pre.gedge)
	}
	return d
}

// mergeTraces rebuilds the serial raise trace: shard events carry
// shard-local step indices; the merged trace renumbers them to global step
// indices and interleaves same-step raises in ascending item order.
func mergeTraces(outs []*shardOut, perStep [][]stamped) *Trace {
	// Group each shard's events by local step index (events are appended in
	// step order, so the grouping is a single scan).
	events := make([]map[int][]RaiseEvent, len(outs))
	for s, out := range outs {
		events[s] = make(map[int][]RaiseEvent)
		if out.trace == nil {
			continue
		}
		for _, ev := range out.trace.Events {
			events[s][ev.Step] = append(events[s][ev.Step], ev)
		}
	}
	tr := &Trace{}
	for g, group := range perStep {
		var evs []RaiseEvent
		for _, rec := range group {
			for _, ev := range events[rec.shard][rec.pos+1] {
				evs = append(evs, RaiseEvent{
					Step:  g + 1,
					Item:  outs[rec.shard].pre.comp[ev.Item],
					Delta: ev.Delta,
				})
			}
		}
		slices.SortFunc(evs, func(a, b RaiseEvent) int { return a.Item - b.Item })
		tr.Events = append(tr.Events, evs...)
	}
	return tr
}
