package engine

import (
	"math"
	"slices"
	"sync"

	"treesched/internal/dual"
)

// This file implements the sharded parallel solve pipeline. The conflict
// graph of §2 decomposes into connected components that never exchange
// messages: items in different components share no demand and no edge, so
// their dual variables are disjoint, their raise rules never read each
// other's state, and — because priorities come from per-owner PRNG streams
// (NewStream) and every item of a demand lives in one component — their
// Luby draws are shard-independent. RunParallel therefore runs the full
// epoch/stage/step schedule per component on a worker pool and reassembles
// the global serial execution exactly:
//
//   - a serial step at schedule position (epoch, stage, iter) raises the
//     union over components of the items each component raises at that same
//     position, so merging shard stacks by position reproduces the serial
//     stack bit for bit;
//   - a serial Luby election runs until every active component is decided,
//     with decided vertices drawing nothing, so the serial iteration count
//     at a position is the max over the shards active there;
//   - the merged stack feeds the same greedy second phase, and the merged
//     dual assignment (disjoint α and β, copied into the global dense
//     layout by external key) yields the same λ and bound.
//
// The result is bit-identical to Run for every worker count. Because each
// shard's execution is self-contained, it is also replayable: with the
// warm-start cache enabled (warm.go), shards untouched by churn reuse their
// previous outcome instead of re-running the schedule.

// shardOut is one conflict component's completed first-phase execution:
// exactly what mergeShards consumes and nothing transient — the raise stack
// with schedule stamps, the shard-local dense dual assignment, the trace
// (when recorded), and the per-shard counters. The warm-start cache retains
// these across solves and replays them verbatim for untouched components,
// so a shardOut must never alias pooled scratch.
type shardOut struct {
	pre           *preShard
	stack         []step
	dual          *dual.Assignment
	trace         *Trace
	lambda        float64 // min(1, min LHS/p) over this shard's items
	raised        int
	maxStageSteps int

	// Merge translations, computed once when the shard runs and reused by
	// every replay: global item ids per stack position, and the global
	// demand slot / edge index for each shard-local one. Valid for the
	// Prepared's lifetime because interning is append-only — Apply never
	// renumbers existing slots — and a component's global ids are stable
	// for as long as its preShard (and hence this shardOut) is reused.
	gids  [][]int
	gslot []int32
	gedge []int32
}

// RunParallel executes the same algorithm as Run, sharded over the
// connected components of the conflict graph on `workers` goroutines. The
// Result is bit-identical to Run(items, cfg) at every worker count; with
// workers ≤ 1 the serial engine runs directly.
func RunParallel(items []Item, cfg Config, workers int) (*Result, error) {
	return Prepare(items).RunParallel(cfg, workers)
}

// RunParallel executes the sharded pipeline over the prepared state,
// spending the worker budget on two levels: component shards first (they
// parallelize whole schedules with zero per-step synchronization), then
// row partitioning inside each shard (intrapar.go) with whatever budget
// the component level cannot use. workers < 1 resolves to
// runtime.GOMAXPROCS(0), matching Options.Parallelism at the root. With
// the warm-start cache enabled it also shards at workers ≤ 1 (replay needs
// per-component outcomes), except on instances known to be one single
// component, where sharding can never pay for itself.
func (p *Prepared) RunParallel(cfg Config, workers int) (*Result, error) {
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseSolve)
		rec.Count(CounterItems, int64(len(p.items)))
	}
	res, err := p.runParallel(cfg, workers)
	if rec != nil && err == nil {
		rec.EndSpan(PhaseSolve, tok)
	}
	return res, err
}

func (p *Prepared) runParallel(cfg Config, workers int) (*Result, error) {
	plan, err := PlanFor(p.items, &cfg) // resolves ξ and defaults globally
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = laneCap()
	}
	warm := p.warm.on()
	if workers <= 1 && (!warm || p.knownSingleComponent()) {
		p.warm.noteCold()
		return p.runSerial(cfg, plan, 1)
	}
	p.ensureShards()
	if len(p.comps) <= 1 {
		// One giant component: sharding cannot help, so the whole budget
		// goes to row partitioning the per-step kernels inside it.
		p.warm.noteCold()
		return p.runSerial(cfg, plan, workers)
	}
	outs, err := p.runShards(cfg, plan, workers, warm)
	if err != nil {
		return nil, err
	}
	return p.mergeShards(cfg, plan, outs)
}

// runShard executes one component's first phase over (pooled) scratch and
// captures its outcome, including the merge translations into the global
// layout (glay is only read, so shards may build them concurrently). pool
// (nil = inline) row-partitions the shard's per-step kernels; the outcome
// is bitwise identical at every lane count, which is what keeps warm-start
// replays valid no matter how the budget that produced them was split.
func runShard(pre *preShard, cfg Config, plan *Plan, scr *solveScratch, glay *layout, pool *intraPool) (*shardOut, error) {
	st := newState(pre.items, pre.lay, cfg, plan, scr, pool)
	res := &Result{Dual: st.core.Dual, Trace: st.trace}
	if err := st.firstPhase(res); err != nil {
		return nil, err
	}
	out := &shardOut{
		pre:           pre,
		stack:         st.stack,
		dual:          st.core.Dual,
		trace:         st.trace,
		lambda:        st.core.lambdaPool(pre.lay.views, pool),
		raised:        res.Raised,
		maxStageSteps: res.MaxStageSteps,
	}
	out.gids = make([][]int, len(out.stack))
	for pos := range out.stack {
		ids := make([]int, len(out.stack[pos].items))
		for i, id := range out.stack[pos].items {
			ids[i] = pre.comp[id]
		}
		out.gids[pos] = ids
	}
	six := pre.lay.ix
	out.gslot = make([]int32, six.NumDemands())
	for s := range out.gslot {
		t, ok := glay.ix.DemandSlot(six.DemandID(int32(s)))
		if !ok {
			panic("engine: shard demand missing from the global index")
		}
		out.gslot[s] = t
	}
	out.gedge = make([]int32, six.NumEdges())
	for i := range out.gedge {
		t, ok := glay.ix.EdgeSlot(six.EdgeKey(int32(i)))
		if !ok {
			panic("engine: shard edge missing from the global index")
		}
		out.gedge[i] = t
	}
	return out, nil
}

// runShards produces every shard's first-phase outcome: cached outcomes are
// replayed for shards whose preShard survived since the last solve under
// the same configuration, the rest run on a worker pool with per-worker
// pooled scratch. When warm, the full outcome set is recorded for the next
// round.
func (p *Prepared) runShards(cfg Config, plan *Plan, workers int, warm bool) ([]*shardOut, error) {
	var key warmKey
	var cached map[*preShard]*shardOut
	if warm {
		key = warmKeyFor(&cfg, plan)
		cached = p.warm.lookup(key)
	}
	outs := make([]*shardOut, len(p.shards))
	todo := make([]int, 0, len(p.shards))
	for s, pre := range p.shards {
		if out := cached[pre]; out != nil {
			outs[s] = out
			continue
		}
		todo = append(todo, s)
	}
	rec := p.rec
	if rec != nil {
		rec.Count(CounterComponents, int64(len(p.shards)))
		rec.Count(CounterComponentsReplayed, int64(len(p.shards)-len(todo)))
		rec.Count(CounterComponentsResolved, int64(len(todo)))
	}

	if len(todo) > 0 {
		errs := make([]error, len(todo))
		// Split the budget: one shard worker per runnable component (up to
		// workers), and the leftover budget becomes row-parallel lanes inside
		// each worker's shards. Both splits are pure performance knobs — the
		// per-shard outcome is bitwise fixed — so the cost model needs no
		// determinism care, only the observation that component parallelism
		// has no per-step synchronization and is therefore spent first.
		compWorkers := min(workers, len(todo))
		intra := 1
		if workers > compWorkers {
			intra = workers / compWorkers
		}
		// Lanes are sized by the largest shard that runs, as runSerial sizes
		// them by its own rows: a worker can only ever partition one shard's
		// rows, so the instance total would spawn helpers no shard can use.
		rows := 0
		for _, s := range todo {
			rows = max(rows, len(p.shards[s].items))
		}
		lanes := intraLanes(intra, rows)
		if rec != nil {
			rec.Count(CounterShardWorkers, int64(compWorkers))
			rec.Count(CounterIntraLanes, int64(lanes))
		}
		if compWorkers <= 1 {
			scr := scratchPool.Get().(*solveScratch)
			pool := newIntraPool(lanes)
			for i, s := range todo {
				var stok int64
				if rec != nil {
					stok = rec.StartSpan(PhaseShardSolve)
				}
				outs[s], errs[i] = runShard(p.shards[s], cfg, plan, scr, p.lay, pool)
				if rec != nil && errs[i] == nil {
					rec.EndSpan(PhaseShardSolve, stok)
				}
			}
			pool.close()
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
					pool := newIntraPool(lanes)
					defer pool.close()
					for i := range work {
						var stok int64
						if rec != nil {
							stok = rec.StartSpan(PhaseShardSolve)
						}
						outs[todo[i]], errs[i] = runShard(p.shards[todo[i]], cfg, plan, scr, p.lay, pool)
						if rec != nil && errs[i] == nil {
							rec.EndSpan(PhaseShardSolve, stok)
						}
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
	if warm {
		p.warm.record(key, p.shards, outs, len(p.shards)-len(todo))
	}
	return outs, nil
}

// stamped is one shard step tagged with its schedule position.
type stamped struct {
	epoch, stage, iter int
	shard              int
	pos                int // position in the shard's stack (= step - 1)
	items              []int
}

// mergeScratch pools mergeShards' transient state: the stamped step
// collection, the per-group structures, and one shared backing array for
// the merged step id lists. Nothing in it survives the merge — steps are
// consumed by the greedy second phase and the per-group records by the
// trace merge, both inside mergeShards — so steady-state re-merges (the
// warm replay path runs one every solve) allocate next to nothing.
type mergeScratch struct {
	all      []stamped
	steps    [][]int
	perStep  [][]stamped
	misIters []int
	ids      []int
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// mergeShards reassembles the serial execution from per-shard first phases.
//
//schedvet:hot
func (p *Prepared) mergeShards(cfg Config, plan *Plan, outs []*shardOut) (*Result, error) {
	res := &Result{
		Delta:  plan.Delta,
		Epochs: plan.MaxGroup,
		Stages: plan.Stages,
	}

	// PhaseMerge is emitted as two segments disjoint from PhaseGreedy —
	// stamp sort + grouping before it, dual merge + λ fold after — so the
	// per-phase durations of one solve never overlap.
	rec := p.rec
	var mtok int64
	if rec != nil {
		mtok = rec.StartSpan(PhaseMerge)
	}

	scr := mergePool.Get().(*mergeScratch)
	//schedvet:ok hotpath one pool-restore defer per merge, not per item; keeps the scratch returned on every error path
	defer func() {
		scr.all = scr.all[:0]
		scr.steps = scr.steps[:0]
		scr.perStep = scr.perStep[:0]
		scr.misIters = scr.misIters[:0]
		scr.ids = scr.ids[:0]
		mergePool.Put(scr)
	}()

	// Collect every shard step with its schedule stamp and global item ids.
	all := scr.all[:0]
	for s, out := range outs {
		res.Raised += out.raised
		if out.maxStageSteps > res.MaxStageSteps {
			res.MaxStageSteps = out.maxStageSteps
		}
		for pos := range out.stack {
			st := &out.stack[pos]
			all = append(all, stamped{st.epoch, st.stage, st.iter, s, pos, out.gids[pos]})
		}
	}
	scr.all = all
	slices.SortFunc(all, func(a, b stamped) int {
		if a.epoch != b.epoch {
			return a.epoch - b.epoch
		}
		if a.stage != b.stage {
			return a.stage - b.stage
		}
		if a.iter != b.iter {
			return a.iter - b.iter
		}
		return a.shard - b.shard
	})

	// Group equal stamps into global steps: the serial step at a stamp
	// raises the union of the shard steps there (ids ascending) and spends
	// max-over-shards Luby iterations electing it. The merged id lists all
	// live in one pooled backing array (a group's view stays valid when a
	// later append reallocates it — reuse only converges faster).
	steps := scr.steps[:0]
	perStep := scr.perStep[:0] // contributing shard records, for the trace
	misIters := scr.misIters[:0]
	idbuf := scr.ids[:0]
	for i := 0; i < len(all); {
		j := i
		start := len(idbuf)
		iters := 0
		for ; j < len(all) && all[j].epoch == all[i].epoch && all[j].stage == all[i].stage && all[j].iter == all[i].iter; j++ {
			idbuf = append(idbuf, all[j].items...)
			if it := outs[all[j].shard].stack[all[j].pos].misIters; it > iters {
				iters = it
			}
		}
		ids := idbuf[start:]
		slices.Sort(ids)
		steps = append(steps, ids)
		perStep = append(perStep, all[i:j])
		misIters = append(misIters, iters)
		i = j
	}
	scr.steps, scr.perStep, scr.misIters, scr.ids = steps, perStep, misIters, idbuf
	res.Steps = len(steps)
	for _, it := range misIters {
		res.MISIters += it
	}
	res.CommRounds = 2*res.MISIters + 2*res.Steps

	// Second phase over the merged stack, exactly as the serial run.
	var gtok int64
	if rec != nil {
		rec.EndSpan(PhaseMerge, mtok)
		gtok = rec.StartSpan(PhaseGreedy)
	}
	res.Selected, res.Profit = selectGreedyViews(p.lay.views, cfg.Mode, steps,
		p.lay.ix.NumDemands(), p.lay.ix.NumEdges())
	if rec != nil {
		rec.EndSpan(PhaseGreedy, gtok)
		mtok = rec.StartSpan(PhaseMerge)
	}

	// Merge the disjoint dual assignments into the global dense layout
	// (components partition demands and edges, so every global slot is
	// written by at most one shard) through each shard's cached slot
	// translations, and score them globally.
	core := p.lay.newCore(cfg.Mode)
	for _, out := range outs {
		core.Dual.MergeSlots(out.dual, out.gslot, out.gedge)
	}
	res.Dual = core.Dual
	if len(p.items) > 0 {
		// λ is a min — order-independent and arithmetic-free — so the min of
		// the cached per-shard minima is bitwise the serial global λ, and warm
		// replays skip the full constraint scan.
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
			res.Bound = core.Dual.Value() / lambda
		}
	}

	if cfg.RecordTrace {
		res.Trace = mergeTraces(outs, perStep)
	}
	if rec != nil {
		rec.EndSpan(PhaseMerge, mtok)
	}
	return res, nil
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
