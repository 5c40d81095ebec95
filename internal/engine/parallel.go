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
//   - every shard runs in place, over the global views and one dual
//     assignment the Prepared keeps: it zeroes its own entries (its demand
//     slots and edge indices), and its run reads and writes no other, so
//     concurrent shards share the assignment without touching each
//     other's entries, and it ends holding every shard's last run;
//   - the greedy second phase decides an item by its own demand's and path
//     edges' usage, all inside its component, so each shard's greedy pass
//     over its own stack selects the serial selection restricted to the
//     shard: the union of the shards' selections is the serial selection,
//     and its profit is one exact sum, which no order or grouping changes;
//   - the shards' entries together hold every nonzero α and β of the
//     serial dual, so the min of their λ minima is the serial λ, and the
//     exact sum of their partial sums (dual.Sum, kept with each shard's
//     outcome) rounds to the serial dual value: the same bound;
//   - a serial step at schedule position (epoch, stage, iter) raises the
//     union over components of the items each component raises at that
//     same position, and its Luby election runs until every active
//     component is decided, with decided vertices drawing nothing, so it
//     spends the most iterations any of them spent there. The schedule
//     statistics and the trace follow from the shard stacks ordered by
//     position, which only a caller that asks for them pays for
//     (Result.mergedSchedule; the merge asks under RecordTrace).
//
// The merge keeps running totals across solves — the exact dual and
// profit sums and a bitset of the selected items — and updates them only
// for the outcomes that change: it folds a re-run shard's outcome in, and
// the outcome it replaces, or a retired shard's, out (dual.Sum.Sub is
// exact), so a warm round's merge costs the shards churn touched. The
// shard table is in no order, and nothing here reads one: the folds and
// the λ min are order-free, and mergedSchedule sorts the shards' steps.
// Solve holds the Prepared's mu across the run and the merge, so the
// shared dual, the totals and the table change under no one.
//
// The result is bit-identical to the serial engine's for every worker
// count. Because each shard's execution is self-contained, it is also
// replayable: with the warm-start cache enabled (warm.go), shards
// untouched by churn reuse their previous outcome instead of re-running
// the schedule.
//
// Replay is the only reason to shard. A cold solve has nothing to replay,
// and splitting one has not paid at any size measured on 2 vCPUs: the
// component pass, the per-shard outcomes and the merge cost more than the
// first phase the shards run in parallel (doc.go, "Component shards").
// Without the cache, Solve runs the serial engine.

// shardOut is one conflict component's completed execution: exactly what
// mergeShards and mergedSchedule consume and nothing transient — the raise
// stack with schedule stamps, the greedy selection, the exact partial sums
// of the shard's dual entries and of its selection's profits, the trace
// (when recorded), and the per-shard counters. The warm-start cache
// retains these across solves and replays them verbatim for untouched
// components, so a shardOut must never alias pooled scratch, and nothing
// reads it mutably once recorded. Its item ids are those of the run that
// made it: the merge folds its selection out before Apply's reuse of an
// id reaches the totals.
type shardOut struct {
	stack         []step
	sel           []int    // the global ids the shard's greedy pass selected, in pop order
	sum           dual.Sum // every nonzero α and β of the shard's entries, added exactly
	profit        dual.Sum // the profits of sel, added exactly
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
// still runs the serial engine, outside mu, when the table holds one
// component, or held one at the last pass: a single shard would be the
// serial execution plus a merge. Concurrent sharded solves serialize on
// mu, and so on the dual they share. Every path returns the serial Result
// bit for bit.
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
	if !p.warm.enabled {
		return p.runSerial(cfg)
	}
	p.mu.Lock()
	if !p.knownSingleComponent() {
		p.ensureShards()
	}
	if len(p.shards) <= 1 {
		p.mu.Unlock()
		res, err = p.runSerial(cfg)
		if err == nil {
			// A solve that bypassed the sharded pipeline is a cold one, so
			// WarmSolves+ColdSolves counts every warm-enabled solve.
			p.mu.Lock()
			p.warm.stats.ColdSolves++
			p.mu.Unlock()
		}
		return res, err
	}
	defer p.mu.Unlock()
	plan := new(Plan)
	if err := p.plan(cfg, plan); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs, todo, err := p.runShards(cfg, plan, workers)
	if err != nil {
		return nil, err
	}
	return p.mergeShards(cfg, plan, outs, todo), nil
}

// RunParallel is Solve.
//
// Deprecated: use Solve.
func (p *Prepared) RunParallel(cfg Config, workers int) (*Result, error) {
	return p.Solve(cfg, workers)
}

// runShard executes one component's first phase in place, over (pooled)
// scratch and the shared dual, whose entries of the shard it zeroes
// first; pops its stack through the greedy rule; and captures the outcome
// with its λ minimum and the exact partial sums of its dual entries and
// its selection's profits, and its stack copied out of the scratch. With a
// recorder attached it runs in a PhaseShardSolve span and counts its work.
//
//schedvet:hot
func (p *Prepared) runShard(sh *preShard, cfg Config, plan *Plan, scr *solveScratch) (*shardOut, error) {
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseShardSolve)
	}
	p.dual.Zero(sh.slots, sh.edges)
	st := newState(p.lay, cfg, plan, scr, p.dual, sh)
	var res Result
	scan, err := st.firstPhase(&res)
	if err != nil {
		return nil, err
	}
	out := &shardOut{
		stack:         scr.ownStack(),
		trace:         st.trace,
		lambda:        st.core.lambdaOver(p.lay.views, sh.comp),
		raised:        res.Raised,
		maxStageSteps: res.MaxStageSteps,
	}
	// Both partials are carried once, complete, so every fold of them
	// adds or subtracts them as they are.
	p.dual.AddEntriesTo(&out.sum, sh.slots, sh.edges)
	out.sum.Carry()
	// The serial pop order restricted to this shard: steps last to first,
	// ids ascending within a step.
	out.sel = st.popGreedy(out.raised)
	for _, id := range out.sel {
		out.profit.Add(p.items[id].Profit)
	}
	out.profit.Carry()
	if rec != nil {
		countWork(rec, scan, &res)
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

// runShards produces every shard's first-phase outcome, and the indices of
// the shards it re-ran: cached outcomes are replayed for shards whose
// preShard survived since the last solve under the same configuration and
// whose stages ended below the plan's step cap, the rest run on
// min(workers, runnable) goroutines with per-worker pooled scratch. First
// it readies the shared dual: grown to the index, with the entries of the
// shards passes retired since zeroed, or, on the first run and after a
// failed one, a new one. It leaves the outcomes the merge must fold out —
// those of the retired shards and those the re-run ones replace — in the
// totals, and records the full outcome set for the next round. Callers
// hold mu.
func (p *Prepared) runShards(cfg Config, plan *Plan, workers int) ([]*shardOut, []int, error) {
	t := &p.totals
	if p.dual == nil {
		p.dual = dual.NewWithIndex(p.lay.ix)
		t.valid = false
	} else {
		p.dual.Grow(p.lay.ix)
	}
	t.unfold = t.unfold[:0]
	for _, sh := range p.retired {
		p.dual.Zero(sh.slots, sh.edges)
		t.unfold = append(t.unfold, sh.out)
	}
	clear(p.retired)
	p.retired = p.retired[:0]

	key := warmKeyFor(cfg, plan)
	outs := make([]*shardOut, len(p.shards))
	replayed := p.warm.replay(key, plan.StepCap, p.shards, outs)
	todo := make([]int, 0, len(p.shards)-replayed)
	for s, out := range outs {
		if out == nil {
			todo = append(todo, s)
			if old := p.shards[s].out; old != nil {
				t.unfold = append(t.unfold, old)
			}
		}
	}
	if replayed == 0 {
		t.valid = false // every outcome is new: the merge starts afresh
	}
	rec := p.rec
	if rec != nil {
		rec.Count(CounterComponents, int64(len(p.shards)))
		rec.Count(CounterComponentsReplayed, int64(replayed))
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
				outs[s], errs[i] = p.runShard(p.shards[s], cfg, plan, scr)
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
						outs[todo[i]], errs[i] = p.runShard(p.shards[todo[i]], cfg, plan, scr)
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
				// The shards that ran hold entries no recorded outcome
				// matches: every shard runs again next time, in a new dual.
				p.warm.forget()
				p.dual = nil
				return nil, nil, err
			}
		}
	}
	p.warm.record(key, p.shards, outs, replayed)
	return outs, todo, nil
}

// mergeTotals are mergeShards' running aggregates, kept across warm
// solves under mu: over the outcomes folded in — when valid, exactly
// the outcomes the last merge returned — the exact sums of their partial
// dual sums and of their selections' profits, and their selections as a
// bitset over item ids with its population. unfold lists the outcomes the
// next merge folds out.
type mergeTotals struct {
	valid    bool
	dual     dual.Sum
	profit   dual.Sum
	sel      []uint64
	selected int
	unfold   []*shardOut
}

// fold folds an outcome into the totals.
//
//schedvet:hot
func (t *mergeTotals) fold(out *shardOut) {
	t.dual.Merge(&out.sum)
	t.profit.Merge(&out.profit)
	for _, id := range out.sel {
		t.sel[id>>6] |= 1 << (id & 63)
	}
	t.selected += len(out.sel)
}

// unfoldOut folds a folded-in outcome out of the totals. Subtraction is
// exact, so the sums are those of the outcomes left, bit for bit.
//
//schedvet:hot
func (t *mergeTotals) unfoldOut(out *shardOut) {
	t.dual.Sub(&out.sum)
	t.profit.Sub(&out.profit)
	for _, id := range out.sel {
		t.sel[id>>6] &^= 1 << (id & 63)
	}
	t.selected -= len(out.sel)
}

// mergeShards assembles the Result from per-shard outcomes. The running
// totals fold in the outcomes of the shards listed in todo, which re-ran,
// after folding out those the run left to unfold — or, when they are not
// valid, start afresh from every outcome — so the exact dual sum over λ,
// the min of the shards' λ minima, scores the dual, the bitset's one scan
// writes Selected, ascending, and the profit sum rounds once. It reads no
// shard stack, builds no dual and sorts nothing: the Result keeps the
// outcomes, for mergedSchedule, and carries the shared dual as its Dual,
// and only under RecordTrace does it ask mergedSchedule for the schedule
// statistics and the trace. Callers hold mu.
//
//schedvet:hot
func (p *Prepared) mergeShards(cfg Config, plan *Plan, outs []*shardOut, todo []int) *Result {
	res := &Result{
		Delta:  plan.Delta,
		Epochs: plan.MaxGroup,
		Stages: plan.Stages,
		Dual:   p.dual,
		shards: outs,
	}

	// PhaseMerge is one segment, before PhaseGreedy, so the per-phase
	// durations of one solve never overlap.
	rec := p.rec
	var mtok int64
	if rec != nil {
		mtok = rec.StartSpan(PhaseMerge)
	}
	t := &p.totals
	words := (len(p.items) + 63) / 64
	folds := 0
	if t.valid {
		extend(&t.sel, words, 0)
		for _, out := range t.unfold {
			t.unfoldOut(out)
		}
		for _, s := range todo {
			t.fold(outs[s])
		}
		folds = len(t.unfold) + len(todo)
	} else {
		t.dual, t.profit = dual.Sum{}, dual.Sum{}
		clear(extend(&t.sel, words, 0))
		t.selected = 0
		for _, out := range outs {
			t.fold(out)
		}
		folds, t.valid = len(outs), true
	}
	clear(t.unfold)
	t.unfold = t.unfold[:0]

	// Score the dual. The components partition the dual variables, so λ
	// is the min of the shards' cached minima (order-independent and
	// arithmetic-free), and the dual value is the exact sum of their
	// cached partial sums, which rounds to the bits of the serial dual's
	// Value in any grouping.
	lambda := 1.0
	for _, out := range outs {
		if out.lambda < lambda {
			lambda = out.lambda
		}
		res.Raised += out.raised
		res.MaxStageSteps = max(res.MaxStageSteps, out.maxStageSteps)
	}
	res.Lambda = lambda
	if lambda <= 0 {
		res.Bound = math.Inf(1)
	} else {
		res.Bound = t.dual.Round() / lambda
	}
	if cfg.RecordTrace {
		res.Steps, res.MISIters, res.Trace = res.mergedSchedule()
	}

	// The shards ran the greedy pass: one scan of the bitset writes the
	// union of their selections, ascending.
	var gtok int64
	if rec != nil {
		rec.EndSpan(PhaseMerge, mtok)
		rec.Count(CounterMergeOutcomes, int64(folds))
		gtok = rec.StartSpan(PhaseGreedy)
	}
	if t.selected > 0 {
		res.Selected = make([]int, 0, t.selected)
		for w, word := range t.sel[:words] {
			for ; word != 0; word &= word - 1 {
				res.Selected = append(res.Selected, w<<6|bits.TrailingZeros64(word))
			}
		}
	}
	res.Profit = t.profit.Round()
	if rec != nil {
		rec.EndSpan(PhaseGreedy, gtok)
	}
	return res
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
					trace.Events = append(trace.Events, RaiseEvent{Step: steps, Item: ev.Item, Delta: ev.Delta})
				}
				next[x.shard] += n
			}
			slices.SortFunc(trace.Events[start:], func(a, b RaiseEvent) int { return a.Item - b.Item })
		}
		i = j
	}
	return steps, misIters, trace
}
