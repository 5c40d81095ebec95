// Package engine implements the paper's two-phase primal–dual framework
// (§3.2) and the epoch/stage/step schedule of the distributed algorithm
// (Figure 7), for both the unit-height raise rule (§5) and the
// narrow-instance rule (§6.1).
//
// The engine is written over abstract Items (demand instance id, demand id,
// resource, edge set, critical set π, group index, profit, height), so tree
// networks, line networks, and windows all reduce to the same code: the
// decomposition packages produce Items, the engine schedules them. It runs
// in-process but follows the distributed schedule exactly — package dist
// executes the same schedule over a message-passing simulator and produces
// bit-identical results for identical seeds.
package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"treesched/internal/dual"
	"treesched/internal/mis"
	"treesched/internal/model"
)

// Mode selects the raise rule.
type Mode int

const (
	// Unit is the unit-height rule of §3.2/§5: δ = s/(|π|+1), every raised
	// variable gains δ. Also used for wide instances (§6).
	Unit Mode = iota
	// Narrow is the §6.1 rule for heights ≤ 1/2: δ = s/(1+2h|π|²),
	// β-variables gain 2|π|δ.
	Narrow
)

func (m Mode) String() string {
	switch m {
	case Unit:
		return "unit"
	case Narrow:
		return "narrow"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Item is one demand instance as seen by the framework.
type Item struct {
	ID       int // dense index into the item slice
	Demand   int // mutual-exclusion group, and its owning processor: one per demand (§2)
	Resource int // tree-network / line resource id
	Group    int // layered-decomposition group, 1-based; group 1 raises first
	Profit   float64
	Height   float64
	Edges    []model.EdgeKey // full path
	Critical []model.EdgeKey // π(d) ⊆ Edges
}

// Config controls a run. Every step elects with Luby's MIS, and the stage
// decay ξ is the paper's, derived from the items by the plan (DefaultXi).
type Config struct {
	Mode    Mode
	Epsilon float64 // ε > 0; slackness target λ = 1-ε
	Seed    int64
	// SingleStage reproduces the Panconesi–Sozio-style schedule for
	// ablation A2: one stage per epoch with a fixed satisfaction threshold
	// of 1/(5+ε) instead of the (1-ξ^j) ladder, giving λ = 1/(5+ε).
	SingleStage bool
	// RecordTrace captures the raise order for interference-property
	// verification. Costs memory; intended for tests and experiments.
	RecordTrace bool
}

// RaiseEvent records one raise for trace verification.
type RaiseEvent struct {
	Step  int // global step counter at which the raise happened
	Item  int
	Delta float64
}

// Trace is the phase-1 raise history.
type Trace struct {
	Events []RaiseEvent
}

// Result reports the outcome of a run.
type Result struct {
	Selected []int // item IDs chosen by the second phase, ascending
	// Profit is Σ profit of Selected: the exact sum, rounded once
	// (SumProfit), so every execution reports the same bits.
	Profit float64
	// Dual is the final dual assignment, over the Prepared's index: its
	// demand slots name their demands until the next Apply, which may give
	// a departed demand's slot to an arrival. A sharded solve's (a
	// warm-start Prepared's, parallel.go) is the Prepared's own, the one
	// its components ran in, so it is valid until the Prepared's next
	// solve or Apply.
	Dual   *dual.Assignment
	Lambda float64 // measured slackness min LHS/p over all items
	Bound  float64 // weak-duality upper bound on Opt: Value/λ

	Delta         int // ∆ = max |π(d)| over all items, as in the plan
	Epochs        int // number of epochs executed (= number of groups)
	Stages        int // stages per epoch
	MaxStageSteps int // most steps taken by any single (epoch, stage) — Lemma 5.1's quantity
	Raised        int // items raised in phase 1

	// Steps counts the steps (framework iterations) with non-empty U,
	// MISIters the Luby iterations across them, and Trace is the raise
	// history, nil unless Config.RecordTrace. A sharded solve reports all
	// three only under RecordTrace and leaves Steps and MISIters zero
	// otherwise; the engine's tests rebuild them on request through
	// MergedSchedule.
	Steps    int
	MISIters int
	Trace    *Trace

	// A sharded solve's component outcomes, from which mergedSchedule
	// rebuilds the schedule statistics.
	shards []*shardOut
}

// state is the mutable run state shared by the phases. The dual raises,
// coefficient handling and threshold checks live in the shared Core so the
// in-process run and the dist protocol cannot drift; all dual addressing
// goes through the layout's precomputed dense views. The raise stack is
// the scratch's (solveScratch.stack). A shard's run covers its
// component's items only (shard), over the same global views.
type state struct {
	lay   *layout
	cfg   Config
	plan  *Plan
	core  *Core
	scr   *solveScratch
	shard *preShard // nil: every item
	trace *Trace
	steps int
}

// scanWork is a first phase's satisfaction-scan work: the rows whose LHS
// it evaluated and the β entries they read.
type scanWork struct{ rows, betas int }

// solveScratch bundles a state's reusable per-run buffers, split out so the
// serial path and the shard workers can pool them across runs instead of
// reallocating per solve. Nothing in a scratch outlives the run that used
// it: everything a Result (or the warm cache) retains — duals, selections,
// traces, and a shard's copy of its stack (ownStack) — is allocated
// elsewhere, so returning a scratch to the pool while the Result lives is
// safe.
type solveScratch struct {
	// st and core are the run's state and core (newState), and plan a
	// serial run's plan.
	st   state
	core Core
	plan Plan
	// stack is the run's raise stack. Its steps' item lists are subslices
	// of picks, which holds every step's raised ids in stack order.
	stack []step
	picks []int
	// usedDemand and usage are the greedy pass's marks (newGreedy).
	usedDemand []bool
	usage      []float64
	// streams holds one splitmix64 priority stream per demand slot,
	// re-seeded by newState exactly as the dist nodes seed theirs
	// (NewStream): every slot for a serial run, a shard's own for a
	// shard's.
	streams []Stream
	// live holds the item ids bucketed by group, ascending within a group;
	// groupEnd[k] is where group k's bucket ends (group k starts at
	// groupEnd[k-1]). During epoch k, firstPhase compacts that bucket in
	// place to the members not yet satisfied at the plan's top threshold.
	live     []int
	groupEnd []int
	// uBuf is per-step scratch for the unsatisfied set.
	uBuf []int
	// cover is the step's conflict graph as mis reads it: the unsatisfied
	// items' demand slots and edge-index lists, by position in u. mis holds
	// the election's per-vertex and per-group buffers.
	cover mis.Cover
	mis   mis.Scratch
}

// scratchPool recycles solve scratch across runs; steady-state churn/serve
// rounds allocate no per-step buffers at all.
var scratchPool = sync.Pool{New: func() any { return &solveScratch{} }}

// step is one pushed independent set with its schedule stamp.
type step struct {
	epoch, stage, iter int
	items              []int // raised item ids, ascending
	misIters           int   // Luby iterations spent electing this step's set
}

// Plan is the globally-known schedule of the distributed algorithm: every
// processor derives it locally from quantities the paper assumes are common
// knowledge (ε, ∆, hmin, pmax/pmin, and the decomposition depths). The
// in-process engine and the simnet protocol execute the same Plan, which is
// what makes their outputs bit-identical.
type Plan struct {
	Xi         float64   // stage decay ξ = DefaultXi(mode, Delta, least item height)
	Stages     int       // b = number of stages per epoch
	Thresholds []float64 // stage j targets (1-ξ^j)-satisfaction; len = Stages
	StepCap    int       // fixed steps per stage (Lemma 5.1 bound + slack)
	MaxGroup   int       // ℓmax = number of epochs
	Delta      int       // max |π(d)|
	PMin, PMax float64
}

// PlanFor validates the items and configuration and computes the schedule:
// one statistics pass over the items, then the plan built from it.
func PlanFor(items []Item, cfg Config) (*Plan, error) {
	var st planStats
	st.gather(items)
	plan := new(Plan)
	if _, err := st.plan(items, cfg, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// newState assembles run state over a prepared plan and dense layout, with
// d as its dual: all zero, or, for a shard (sh non-nil), zero at the
// shard's entries, the only ones its run reads or writes. The layout is
// read-only: concurrent states (runs over one Prepared, shard workers) may
// share one, and concurrent shards share d, each writing only its own
// entries. Its views are the whole item set a run reads, and also the
// conflict graph: an item's demand slot and edge indices are the groups it
// belongs to. scr may be a pooled scratch (nil allocates a private one);
// the state lives in it, its raise stack is emptied, and its streams are
// re-seeded here (a shard's own slots only, which are all its draws
// read), so a recycled scratch starts every run from the same stream
// positions a fresh one would.
func newState(lay *layout, cfg Config, plan *Plan, scr *solveScratch, d *dual.Assignment, sh *preShard) *state {
	if scr == nil {
		scr = &solveScratch{}
	}
	scr.core = Core{Mode: cfg.Mode, Dual: d}
	scr.st = state{lay: lay, cfg: cfg, plan: plan, core: &scr.core, scr: scr, shard: sh}
	scr.stack, scr.picks = scr.stack[:0], scr.picks[:0]
	st := &scr.st
	ids := lay.demandIDs
	streams := resize(&scr.streams, len(ids))
	if sh == nil {
		for s, id := range ids {
			streams[s] = NewStream(cfg.Seed, id)
		}
	} else {
		for _, s := range sh.slots {
			streams[s] = NewStream(cfg.Seed, ids[s])
		}
	}
	if cfg.RecordTrace {
		st.trace = &Trace{}
	}
	return st
}

// runSerial plans and executes both phases over one conflict graph on the
// calling goroutine. The sharded pipeline (Solve with the warm-start cache
// on) runs firstPhase per component instead and merges.
// PhaseSerialSolve opens before planning and the scratch fetch, so the
// serial path leaves only the recorder calls of its PhaseSolve span
// uninstrumented. The dual is scored (λ and the bound) right after the
// first phase, inside PhaseSerialSolve: scoring reads only the dual and
// the greedy phase reads only the views and the stack, so the order cannot
// reach any result.
func (p *Prepared) runSerial(cfg Config) (*Result, error) {
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseSerialSolve)
	}
	scr := scratchPool.Get().(*solveScratch)
	defer scratchPool.Put(scr)
	plan := &scr.plan
	if err := p.plan(cfg, plan); err != nil {
		return nil, err
	}
	st := newState(p.lay, cfg, plan, scr, p.runDual(), nil)
	res := &Result{Dual: st.core.Dual, Trace: st.trace, Delta: plan.Delta}
	scan, err := st.firstPhase(res)
	if err != nil {
		return nil, err
	}
	if len(p.items) > 0 {
		res.Lambda, res.Bound = st.core.lambdaBound(p.lay.views)
	}
	if rec != nil {
		rec.EndSpan(PhaseSerialSolve, tok)
		tok = rec.StartSpan(PhaseGreedy)
	}
	res.Selected = st.popGreedy(res.Raised)
	slices.Sort(res.Selected)
	res.Profit = SumProfit(p.items, res.Selected)
	if rec != nil {
		rec.EndSpan(PhaseGreedy, tok)
		rec.Count(CounterIntraLanes, 1)
		countWork(rec, scan, res)
	}
	return res, nil
}

// countWork emits the work of a finished first phase and its greedy pass,
// which tests each raised item once.
func countWork(rec Recorder, scan scanWork, res *Result) {
	rec.Count(CounterScanRows, int64(scan.rows))
	rec.Count(CounterScanBetas, int64(scan.betas))
	rec.Count(CounterMISIters, int64(res.MISIters))
	rec.Count(CounterGreedyTests, int64(res.Raised))
}

// planStats is all a plan reads of an item set: the item counts per |π| and
// per group, whose largest nonzero indices are ∆ and ℓmax, the extremes of
// profit and height with the number of items holding each, and the number
// of items that fail the item checks (itemOK), which are counted
// nowhere else. A Prepared gathers them in Prepare's pass over the items,
// and Apply keeps them from the delta (delta.go), so a solve plans without
// reading an item.
//
// Each extreme is a bound on the counted items' values, held by exactly
// as many items as its count says. A count of 0 — its last holder
// departed — leaves the bound valid but no longer attained, and Apply
// gathers the statistics again (stale).
type planStats struct {
	n          int // items that pass the checks
	invalid    int // items that fail them
	byCritical []int
	byGroup    []int
	pmin, pmax float64
	hmin, hmax float64
	// Items holding each extreme.
	npmin, npmax, nhmin, nhmax int
}

// gather recomputes the statistics from every item, reusing the count
// slices.
func (s *planStats) gather(items []Item) {
	s.reset()
	for i := range items {
		s.add(&items[i], i)
	}
}

// reset empties the statistics, keeping the count slices' storage.
func (s *planStats) reset() {
	*s = planStats{byCritical: s.byCritical[:0], byGroup: s.byGroup[:0]}
}

// add counts the item at position pos.
func (s *planStats) add(it *Item, pos int) {
	if !itemOK(it, pos) {
		s.invalid++
		return
	}
	// The counts grow in one allocation each, to 16 entries at first: the
	// ideal decompositions of random trees of 64 to 4,096 vertices have 7
	// to 12 groups and |π| ≤ 4.
	k, g := len(it.Critical), it.Group
	if k >= len(s.byCritical) {
		extend(&s.byCritical, max(k+1, 16), 0)
	}
	if g >= len(s.byGroup) {
		extend(&s.byGroup, max(g+1, 16), 0)
	}
	s.byCritical[k]++
	s.byGroup[g]++
	if s.n == 0 {
		s.pmin, s.pmax, s.hmin, s.hmax = it.Profit, it.Profit, it.Height, it.Height
		s.npmin, s.npmax, s.nhmin, s.nhmax = 1, 1, 1, 1
	} else {
		s.pmin, s.npmin = fold(s.pmin, s.npmin, it.Profit, it.Profit < s.pmin)
		s.pmax, s.npmax = fold(s.pmax, s.npmax, it.Profit, it.Profit > s.pmax)
		s.hmin, s.nhmin = fold(s.hmin, s.nhmin, it.Height, it.Height < s.hmin)
		s.hmax, s.nhmax = fold(s.hmax, s.nhmax, it.Height, it.Height > s.hmax)
	}
	s.n++
}

// fold folds value v into an extreme x held by c items; beyond reports
// that v passes x.
func fold(x float64, c int, v float64, beyond bool) (float64, int) {
	switch {
	case beyond:
		return v, 1
	case v == x:
		return x, c + 1
	}
	return x, c
}

// remove uncounts the item at position pos, which add counted there.
func (s *planStats) remove(it *Item, pos int) {
	if !itemOK(it, pos) {
		s.invalid--
		return
	}
	s.byCritical[len(it.Critical)]--
	s.byGroup[it.Group]--
	s.n--
	if it.Profit == s.pmin {
		s.npmin--
	}
	if it.Profit == s.pmax {
		s.npmax--
	}
	if it.Height == s.hmin {
		s.nhmin--
	}
	if it.Height == s.hmax {
		s.nhmax--
	}
}

// stale reports whether an extreme's last holder departed, so that only a
// gather can tell the extreme again.
func (s *planStats) stale() bool {
	return s.n > 0 && (s.npmin == 0 || s.npmax == 0 || s.nhmin == 0 || s.nhmax == 0)
}

// plan checks the configuration and builds the schedule from the
// statistics of items into p, whose threshold storage it reuses. A set
// with an item that fails the checks, or a height over 1/2 in narrow mode,
// goes to validate, which reads the items to name the first offence; read
// is the number of items it read. Every error and its order are those of a
// check of the configuration, then of the items in order, then of ξ.
func (s *planStats) plan(items []Item, cfg Config, p *Plan) (read int, err error) {
	// Range checks are negated so that NaN, which fails every comparison,
	// is rejected too.
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return 0, fmt.Errorf("engine: epsilon must be in (0,1), got %v", cfg.Epsilon)
	}
	if s.invalid > 0 || cfg.Mode == Narrow && s.n > 0 && s.hmax > 0.5+dual.Tolerance {
		read, err := validate(items, cfg.Mode)
		if err == nil {
			panic("engine: plan statistics disagree with the items")
		}
		return read, err
	}
	*p = Plan{PMin: 1, PMax: 1, Delta: lastNonzero(s.byCritical), MaxGroup: lastNonzero(s.byGroup), Thresholds: p.Thresholds[:0]}
	hmin := 1.0
	if s.n > 0 {
		p.PMin, p.PMax, hmin = s.pmin, s.pmax, s.hmin
	}
	p.Xi = DefaultXi(cfg.Mode, p.Delta, hmin)
	// C/(C+hmin) rounds to 1 when hmin is below C's last bit, and a ladder
	// at ξ = 1 never reaches 1-ε.
	if !(p.Xi < 1) {
		return 0, fmt.Errorf("engine: stage decay ξ = %v (∆ = %d, least height %v) is not below 1", p.Xi, p.Delta, hmin)
	}
	p.StepCap = stepCap(p.PMin, p.PMax)
	if cfg.SingleStage {
		p.Stages = 1
		p.Thresholds = append(p.Thresholds, 1/(5+cfg.Epsilon))
		return 0, nil
	}
	// The ladder has b = ⌈ln ε / ln ξ⌉ stages, and under the narrow rule,
	// where ln ξ ≈ −hmin/C, that grows as C/hmin: bound it before counting.
	if b := math.Ceil(math.Log(cfg.Epsilon) / math.Log(p.Xi)); !(b <= maxStages) {
		return 0, fmt.Errorf("engine: the stage ladder needs about %v stages (ξ = %v, ε = %v, least height %v), more than %d",
			b, p.Xi, cfg.Epsilon, hmin, maxStages)
	}
	b := 1
	for x := p.Xi; x > cfg.Epsilon; x *= p.Xi {
		b++
	}
	p.Stages = b
	p.Thresholds = resize(&p.Thresholds, b)
	x := 1.0
	for j := 0; j < b; j++ {
		x *= p.Xi
		p.Thresholds[j] = 1 - x
	}
	return 0, nil
}

// maxStages bounds a plan's stages per epoch. Every epoch scans its live
// items once per stage, and the plan keeps a threshold per stage, so a
// ladder of b stages costs up to b scans and 8b bytes before it raises
// anything. 1<<16 stages (512 KiB of thresholds) hold the narrow rule's
// ladder, about (C/hmin)·ln(1/ε) stages with C = 1+∆², down to least
// heights of 3e-3 at ∆ = 6 and ε = 0.01; the narrow sets of the tests and
// experiments, whose least heights are 0.01 and up, need at most 1,500.
// The unit rule's ladder stays under a thousand stages for ∆ ≤ 20 at any
// ε above 1e-9.
const maxStages = 1 << 16

// lastNonzero returns the largest index of a nonzero count, or 0.
func lastNonzero(counts []int) int {
	for k := len(counts) - 1; k > 0; k-- {
		if counts[k] != 0 {
			return k
		}
	}
	return 0
}

// plan is planStats.plan over the Prepared's statistics, into dst,
// counting the items a validate fallback reads.
func (p *Prepared) plan(cfg Config, dst *Plan) error {
	read, err := p.stats.plan(p.items, cfg, dst)
	if read > 0 && p.rec != nil {
		p.rec.Count(CounterPlanItems, int64(read))
	}
	return err
}

// validate reports the first item, in item order, that fails the item
// checks or, in narrow mode, has a height over 1/2, with the number of
// items it read.
func validate(items []Item, mode Mode) (read int, err error) {
	for i := range items {
		if err := itemError(&items[i], i); err != nil {
			return i + 1, err
		}
		if mode == Narrow && items[i].Height > 0.5+dual.Tolerance {
			return i + 1, fmt.Errorf("engine: item %d has height %v > 1/2 in narrow mode", i, items[i].Height)
		}
	}
	return len(items), nil
}

// itemOK reports whether the item at position i passes the item checks:
// its ID is its position, its group is ≥ 1, its path and critical set are
// non-empty, its profit is positive and its height is in (0,1]. NaN fails
// every comparison, so it fails the checks.
func itemOK(it *Item, i int) bool {
	return it.ID == i && it.Group >= 1 && len(it.Edges) > 0 && len(it.Critical) > 0 &&
		it.Profit > 0 && it.Height > 0 && it.Height <= 1
}

// itemError names the first check the item at position i fails, or
// returns nil if it passes them all.
func itemError(it *Item, i int) error {
	switch {
	case itemOK(it, i):
		return nil
	case it.ID != i:
		return fmt.Errorf("engine: item %d has ID %d", i, it.ID)
	case it.Group < 1:
		return fmt.Errorf("engine: item %d has group %d < 1", i, it.Group)
	case len(it.Edges) == 0 || len(it.Critical) == 0:
		return fmt.Errorf("engine: item %d has empty path or critical set", i)
	case !(it.Profit > 0):
		return fmt.Errorf("engine: item %d has profit %v", i, it.Profit)
	default:
		return fmt.Errorf("engine: item %d has height %v", i, it.Height)
	}
}

// DefaultXi returns the paper's stage-decay parameter: for the unit rule,
// ξ = 2∆′/(2∆′+1) with ∆′ = ∆+1 (§5: 14/15 for ∆ = 6; §7: 8/9 for ∆ = 3);
// for the narrow rule, ξ = C/(C+hmin) with C = 1+∆², which makes every
// kill double the victim's profit (the Claim 5.2 analogue of §6.1).
func DefaultXi(mode Mode, delta int, hm float64) float64 {
	if delta < 1 {
		delta = 1
	}
	if mode == Narrow {
		c := float64(1 + delta*delta)
		return c / (c + hm)
	}
	dp := float64(delta + 1)
	return 2 * dp / (2*dp + 1)
}

// MaxCritical returns ∆ = max |π(d)| over the items (0 if none).
func MaxCritical(items []Item) int {
	d := 0
	for i := range items {
		if len(items[i].Critical) > d {
			d = len(items[i].Critical)
		}
	}
	return d
}

// firstPhase runs the epoch/stage/step schedule of Figure 7.
//
// The per-step satisfaction scan is incremental and exact. Each epoch keeps
// a live list of its members not yet satisfied at the plan's top threshold
// (the largest in Plan.Thresholds). The first step of a stage scans only
// live: it computes each member's LHS once, collects U (the members below
// the stage threshold), and drops from live the members at or above the
// top threshold. Every later step of the stage re-tests only the previous
// step's U. This selects exactly the U of a scan over all members at every
// step, in the same ascending order:
//
//   - A raise only adds: RaiseUnit and RaiseNarrow add δ ≥ 0 to α and a
//     non-negative multiple of δ to β on π(d), and write nothing when the
//     slack s ≤ 0. No dual variable ever falls.
//   - Round-to-nearest addition, and multiplication by a positive
//     coefficient, are monotone, so the computed α + h·Σβ (summed in path
//     order) of every item never decreases from one step to the next.
//   - dual.Meets is monotone in the LHS and in the threshold, so an item
//     satisfied at the stage threshold stays satisfied for the rest of the
//     stage — U₍ᵢ₊₁₎ = {x ∈ Uᵢ : still unsatisfied} — and an item
//     satisfied at the top threshold stays satisfied at every stage
//     threshold for the rest of the run.
//   - Items belong to exactly one epoch, so live never needs a dropped
//     member back.
//
// The verdict on the scanned LHS is dual.Meets, the same comparison
// Core.Unsatisfied applies in the dist nodes. The step cap is checked
// ahead of each scan, so it fires at the iteration a full scan would.
func (st *state) firstPhase(res *Result) (scanWork, error) {
	plan := st.plan
	live, groupEnd := st.groupMembers()
	top := slices.Max(plan.Thresholds)
	res.Epochs = plan.MaxGroup
	res.Stages = plan.Stages
	var scan scanWork

	for k := 1; k <= plan.MaxGroup; k++ {
		members := live[groupEnd[k-1]:groupEnd[k]]
		if len(members) == 0 {
			continue
		}
		for j := 0; j < plan.Stages; j++ {
			thresh := plan.Thresholds[j]
			var u []int
			for iter := 0; ; iter++ {
				if iter >= plan.StepCap {
					return scan, fmt.Errorf("engine: epoch %d stage %d exceeded %d steps (pmax/pmin=%v); Lemma 5.1 cap violated",
						k, j+1, plan.StepCap, plan.PMax/plan.PMin)
				}
				var b int
				if iter == 0 {
					scan.rows += len(members)
					u, members, b = st.scanLive(members, thresh, top)
				} else {
					scan.rows += len(u)
					u, b = st.retest(u, thresh)
				}
				scan.betas += b
				if len(u) == 0 {
					if iter > res.MaxStageSteps {
						res.MaxStageSteps = iter
					}
					break
				}
				st.steps++
				res.Steps++
				chosen, iters := st.independentSet(u)
				res.MISIters += iters
				for _, id := range chosen {
					st.raise(id)
				}
				res.Raised += len(chosen)
				st.scr.stack = append(st.scr.stack, step{epoch: k, stage: j + 1, iter: iter, items: chosen, misIters: iters})
			}
			// Every member is satisfied at the top threshold: each later
			// stage would scan nothing and raise nothing.
			if len(members) == 0 {
				break
			}
		}
	}
	return scan, nil
}

// groupMembers buckets the run's item ids — a shard's component, or every
// item — by their views' groups (a counting sort into the scratch,
// ascending within each group) and returns the buckets with their end
// offsets: group k is live[groupEnd[k-1]:groupEnd[k]] for
// 1 ≤ k ≤ plan.MaxGroup. Groups are validated ≥ 1, so bucket 0 is empty.
//
//schedvet:hot
func (st *state) groupMembers() (live, groupEnd []int) {
	scr := st.scr
	views := st.lay.views
	g := st.plan.MaxGroup
	// ids lists the run's items; a serial run's are 0..n-1, listed in
	// the scratch once per run.
	var ids []int
	if st.shard != nil {
		ids = st.shard.comp
	} else {
		ids = resize(&scr.uBuf, len(views))
		for i := range ids {
			ids[i] = i
		}
	}
	// pos[k] counts group k-1, then holds bucket k's start, and after the
	// fill has advanced it past every member, bucket k's end.
	pos := slices.Grow(scr.groupEnd[:0], g+2)[:g+2]
	clear(pos)
	for _, i := range ids {
		if k := int(views[i].Group); k <= g {
			pos[k+1]++
		}
	}
	for k := 1; k <= g+1; k++ {
		pos[k] += pos[k-1]
	}
	n := pos[g+1]
	live = slices.Grow(scr.live[:0], n)[:n]
	for _, i := range ids {
		if k := int(views[i].Group); k <= g {
			live[pos[k]] = i
			pos[k]++
		}
	}
	scr.live, scr.groupEnd = live, pos
	return live, pos
}

// scanLive is the first step of a stage over an epoch's live members: one
// LHS per member, classified against the stage threshold (collected into
// U, the step's unsatisfied set) and the top threshold (kept in live).
// A member below the stage threshold is below the top one too, so U ⊆ the
// compacted live. Both lists come back ascending; live is compacted in
// place and U lives in the scratch. betas is the β entries the LHSs read.
//
//schedvet:hot
func (st *state) scanLive(live []int, thresh, top float64) (u, rest []int, betas int) {
	u = st.scr.uBuf[:0]
	views := st.lay.views
	core := st.core
	n := 0
	for _, id := range live {
		v := &views[id]
		betas += len(v.Edges)
		lhs := core.Dual.LHS(v.Slot, core.Coeff(v), v.Edges)
		if !dual.Meets(lhs, thresh, v.Profit) {
			u = append(u, id)
		}
		if !dual.Meets(lhs, top, v.Profit) {
			live[n] = id
			n++
		}
	}
	st.scr.uBuf = u
	return u, live[:n], betas
}

// retest is every later step of a stage: the previous step's U, compacted
// in place to the members still below the stage threshold, and the β
// entries their LHSs read.
//
//schedvet:hot
func (st *state) retest(u []int, thresh float64) ([]int, int) {
	views := st.lay.views
	n, betas := 0, 0
	for _, id := range u {
		v := &views[id]
		betas += len(v.Edges)
		if st.core.Unsatisfied(v, thresh) {
			u[n] = id
			n++
		}
	}
	return u[:n], betas
}

// independentSet computes a maximal independent set within u (item ids)
// with Luby's algorithm and returns the selected ids ascending, appended to
// the scratch's picks, plus the number of Luby iterations.
// mis reads the conflict graph among u as its clique cover: each item's
// demand slot and path edge indices, the groups whose shared membership is
// the §2 conflict relation.
//
//schedvet:hot
func (st *state) independentSet(u []int) ([]int, int) {
	scr := st.scr
	c := &scr.cover
	c.Demand, c.Edges = c.Demand[:0], c.Edges[:0]
	views := st.lay.views
	for _, id := range u {
		v := &views[id]
		c.Demand = append(c.Demand, v.Slot)
		c.Edges = append(c.Edges, v.Edges)
	}
	c.NumDemands, c.NumEdges = st.lay.demands, st.lay.edges
	// A vertex draws from its demand group's stream (one processor per
	// demand, §2): st.draw resolves a demand slot to the stream seeded
	// from the slot's external demand id, as dist seeds its nodes'.
	in, iters := mis.Luby(c, st.draw, &scr.mis)
	return scr.pick(u, in), iters
}

// pick appends the ids of u that in marks to picks and returns them, capped
// at their own length. A regrown picks keeps every earlier step's ids, in
// order, while the earlier steps keep the array they were picked into.
func (scr *solveScratch) pick(u []int, in []bool) []int {
	start := len(scr.picks)
	for i, id := range u {
		if in[i] {
			scr.picks = append(scr.picks, id)
		}
	}
	return scr.picks[start:len(scr.picks):len(scr.picks)]
}

// draw returns the next priority from the stream at a demand slot. The
// distributed protocol seeds processor streams identically (NewStream over
// the external demand id), so draws coincide.
//
//schedvet:hot
func (st *state) draw(slot int) float64 {
	return st.scr.streams[slot].Float64()
}

//
//schedvet:hot
func (st *state) raise(id int) {
	delta := st.core.Raise(&st.lay.views[id])
	if st.trace != nil {
		st.trace.Events = append(st.trace.Events, RaiseEvent{Step: st.steps, Item: id, Delta: delta})
	}
}

// popGreedy is the second phase: it pops the raise stack through the
// shared greedy rule (greedy.take) — last step first, ids ascending within
// a step — and returns the ids it selects, in pop order, in a fresh slice
// with room for every raised item, or nil when none was raised.
func (st *state) popGreedy(raised int) []int {
	if raised == 0 {
		return nil
	}
	g := newGreedy(st.lay.views, st.cfg.Mode, st.lay.demands, st.lay.edges, st.scr, st.shard)
	sel := make([]int, 0, raised)
	for s := len(st.scr.stack) - 1; s >= 0; s-- {
		sel = g.take(st.scr.stack[s].items, sel)
	}
	return sel
}

// stepCap bounds the steps per stage: Lemma 5.1 proves at most
// 1 + log₂(pmax/pmin) steps; we allow generous slack for floating point and
// treat exceeding the cap as an internal error.
func stepCap(pmin, pmax float64) int {
	if pmin <= 0 {
		return 64
	}
	return 8 + 2*int(math.Ceil(math.Log2(pmax/pmin+1)))
}
