package engine

import (
	"cmp"
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
// reassembles the global serial result exactly:
//
//   - the greedy second phase decides an item by its own demand's and path
//     edges' usage, all inside its component, so each shard's greedy pass
//     over its own stack selects the serial selection restricted to the
//     shard: the union of the shards' selections is the serial selection,
//     and its profit is one exact sum (SumProfit), which no order changes;
//   - the shards' duals are disjoint and together hold every nonzero α and
//     β of the serial dual, so the min of their λ minima is the serial λ,
//     and the exact sum of their partial sums (dual.Sum, kept with each
//     shard's outcome) rounds to the serial dual value: the same bound,
//     with no global α/β built. A caller that wants the dual itself asks
//     for it (Result.mergedDual), and only then is it assembled;
//   - a serial step at schedule position (epoch, stage, iter) raises the
//     union over components of the items each component raises at that
//     same position, and its Luby election runs until every active
//     component is decided, with decided vertices drawing nothing, so it
//     spends the most iterations any of them spent there. The schedule
//     statistics and the trace follow from the shard stacks ordered by
//     position, which only a caller that asks for them pays for
//     (Result.mergedSchedule; the merge asks under RecordTrace).
//
// The result is bit-identical to the serial engine's for every worker
// count. Because each shard's execution is self-contained, it is also
// replayable: with the warm-start cache enabled (warm.go), shards
// untouched by churn reuse their previous outcome instead of re-running
// the schedule.
//
// Replay is the only reason to shard. A cold solve has nothing to replay,
// and splitting one has not paid at any size measured on 2 vCPUs: the
// component pass, a relabeled layout per shard and the merge cost more
// than the first phase the shards run in parallel (doc.go, "Component
// shards"). Without the cache, Solve runs the serial engine.

// shardOut is one conflict component's completed execution: exactly what
// mergeShards and mergedSchedule consume and nothing transient — the raise
// stack with schedule stamps, the greedy selection, the shard-local dense
// dual assignment with its exact partial sum, the trace (when recorded),
// and the per-shard counters. The warm-start cache retains these across
// solves and replays them verbatim for untouched components, so a shardOut
// must never alias pooled scratch, and nothing reads it mutably once
// recorded.
type shardOut struct {
	pre           *preShard
	stack         []step
	sel           []int // the global ids the shard's greedy pass selected, in pop order
	dual          *dual.Assignment
	sum           dual.Sum // every nonzero α and β of dual, added exactly
	trace         *Trace
	lambda        float64 // min(1, min LHS/p) over this shard's items
	raised        int
	maxStageSteps int
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
	plan := new(Plan)
	if err := p.plan(cfg, plan); err != nil {
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
// its dual's λ minimum and exact partial sum, and its stack copied out of
// the scratch. With rec attached it runs in a PhaseShardSolve span and
// counts its work.
func runShard(pre *preShard, cfg Config, plan *Plan, scr *solveScratch, rec Recorder) (*shardOut, error) {
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseShardSolve)
	}
	st := newState(pre.lay, cfg, plan, scr, dual.NewDense(pre.lay.demands, pre.lay.edges))
	res := &Result{Dual: st.core.Dual, Trace: st.trace}
	scan, err := st.firstPhase(res)
	if err != nil {
		return nil, err
	}
	out := &shardOut{
		pre:           pre,
		stack:         scr.ownStack(),
		dual:          st.core.Dual,
		trace:         st.trace,
		lambda:        st.core.lambdaOnly(pre.lay.views),
		raised:        res.Raised,
		maxStageSteps: res.MaxStageSteps,
	}
	out.dual.AddTo(&out.sum)
	out.sum.Carry() // every merge of the cached partial then adds it as is
	// The serial pop order restricted to this shard: steps last to first,
	// local ids ascending within a step.
	sel := st.popGreedy(out.raised)
	for i, id := range sel {
		sel[i] = pre.comp[id]
	}
	out.sel = sel
	if rec != nil {
		countWork(rec, scan, res)
		rec.EndSpan(PhaseShardSolve, tok)
	}
	return out, nil
}

// ownStack copies the raise stack out of the scratch, for an outcome that
// outlives the run: the steps into one exact-size slab, and their item
// lists into another. picks holds every step's ids in stack order, so it
// is copied whole.
func (scr *solveScratch) ownStack() []step {
	stack := make([]step, len(scr.stack))
	ids := make([]int, len(scr.picks))
	copy(ids, scr.picks)
	for i, s := range scr.stack {
		n := len(s.items)
		s.items, ids = ids[:n:n], ids[n:]
		stack[i] = s
	}
	return stack
}

// runShards produces every shard's first-phase outcome: cached outcomes are
// replayed for shards whose preShard survived since the last solve under
// the same configuration and whose stages ended below the plan's step cap,
// the rest run on min(workers, runnable) goroutines with per-worker pooled
// scratch. The full outcome set is recorded for the next round.
func (p *Prepared) runShards(cfg Config, plan *Plan, workers int) ([]*shardOut, error) {
	key := warmKeyFor(cfg, plan)
	outs := make([]*shardOut, len(p.shards))
	todo := make([]int, 0, len(p.shards)-p.warm.replay(key, plan.StepCap, p.shards, outs))
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

// selMarks pools the bitset mergeShards collects the selection in: one bit
// per item, all clear between merges.
var selMarks = sync.Pool{New: func() any { return new([]uint64) }}

// mergeShards assembles the Result from per-shard outcomes: the shards' λ
// minima and exact partial sums score the dual, and the union of their
// selections, ascending, is Selected, whose profit is one exact sum. It
// reads no shard stack, builds no global dual and sorts nothing: the
// Result keeps the outcomes, for mergedDual and mergedSchedule, and only
// under RecordTrace does it ask mergedSchedule for the schedule
// statistics and the trace.
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
	selected := 0
	for _, out := range outs {
		res.Raised += out.raised
		res.MaxStageSteps = max(res.MaxStageSteps, out.maxStageSteps)
		selected += len(out.sel)
	}

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
		res.Steps, res.MISIters, res.Trace = res.mergedSchedule()
	}

	// The shards ran the greedy pass: each selected id sets its bit, and
	// one scan of the bitset writes Selected, ascending.
	var gtok int64
	if rec != nil {
		rec.EndSpan(PhaseMerge, mtok)
		gtok = rec.StartSpan(PhaseGreedy)
	}
	if selected > 0 {
		res.Selected = make([]int, 0, selected)
		buf := selMarks.Get().(*[]uint64)
		words := (len(p.items) + 63) / 64
		marks := extend(buf, words, 0)[:words]
		for _, out := range outs {
			for _, id := range out.sel {
				marks[id>>6] |= 1 << (id & 63)
			}
		}
		for w, word := range marks {
			for ; word != 0; word &= word - 1 {
				res.Selected = append(res.Selected, w<<6|bits.TrailingZeros64(word))
			}
			marks[w] = 0
		}
		// The bitset goes back only from here: a merge that panics leaves
		// bits set, and its bitset must not be reused.
		//schedvet:ok hotpath boxing a pointer allocates nothing; one Put per merge, not per item
		selMarks.Put(buf)
	}
	res.Profit = SumProfit(p.items, res.Selected)
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

// mergedSchedule returns the solve's schedule statistics, Steps and
// MISIters, and its Trace: a serial solve's own, or, for a sharded solve,
// the serial execution's, rebuilt from the kept shard stacks. One sort of
// the shard steps by (epoch, stage, iter, shard) groups them into the
// serial steps, a group's Luby election spends the most iterations any of
// its shards spent, and, when the shards were traced, a group's raises
// come in ascending item order under the group's 1-based step number.
// Engine tests read it through MergedSchedule.
func (r *Result) mergedSchedule() (steps, misIters int, trace *Trace) {
	if r.shards == nil {
		return r.Steps, r.MISIters, r.Trace
	}
	type ref struct {
		at         [3]int // epoch, stage, iter
		shard, pos int
	}
	var refs []ref
	for s, out := range r.shards {
		for pos, st := range out.stack {
			refs = append(refs, ref{[3]int{st.epoch, st.stage, st.iter}, s, pos})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Or(slices.Compare(a.at[:], b.at[:]), a.shard-b.shard) })
	// A shard's trace lists its raises in stack order, one per raised item,
	// and the sort visits each shard's stack in order: next[s] is where
	// shard s's next step's raises begin.
	var next []int
	if r.shards[0].trace != nil {
		trace, next = &Trace{}, make([]int, len(r.shards))
	}
	for i := 0; i < len(refs); {
		j, iters := i, 0
		for ; j < len(refs) && refs[j].at == refs[i].at; j++ {
			iters = max(iters, r.shards[refs[j].shard].stack[refs[j].pos].misIters)
		}
		steps++
		misIters += iters
		if trace != nil {
			start := len(trace.Events)
			for _, x := range refs[i:j] {
				out := r.shards[x.shard]
				n := len(out.stack[x.pos].items)
				for _, ev := range out.trace.Events[next[x.shard] : next[x.shard]+n] {
					trace.Events = append(trace.Events, RaiseEvent{Step: steps, Item: out.pre.comp[ev.Item], Delta: ev.Delta})
				}
				next[x.shard] += n
			}
			slices.SortFunc(trace.Events[start:], func(a, b RaiseEvent) int { return a.Item - b.Item })
		}
		i = j
	}
	return steps, misIters, trace
}
