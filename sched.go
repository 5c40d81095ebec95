package treesched

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/seq"
)

// Instance is a tree-network scheduling problem under construction: a shared
// vertex set, one or more tree-networks over it, and profit-weighted demands
// with accessibility sets. Build with NewInstance, AddTree and AddDemand,
// then call Solve.
type Instance struct {
	numVertices int
	trees       []*graph.Tree
	demands     []model.Demand
	access      []int // the demands' access lists, copied in by AddDemand
	err         error
}

// NewInstance creates an empty instance over vertices 0..numVertices-1.
func NewInstance(numVertices int) *Instance {
	in := &Instance{numVertices: numVertices}
	if numVertices < 2 {
		in.err = fmt.Errorf("treesched: need at least 2 vertices, got %d", numVertices)
	}
	return in
}

// AddTree registers a tree-network given as undirected edges over the
// instance's vertex set and returns its network id.
func (in *Instance) AddTree(edges [][2]int) (int, error) {
	if in.err != nil {
		return 0, in.err
	}
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: e[0], V: e[1]}
	}
	t, err := graph.NewTree(in.numVertices, es)
	if err != nil {
		return 0, fmt.Errorf("treesched: %w", err)
	}
	in.trees = append(in.trees, t)
	return len(in.trees) - 1, nil
}

// DemandOption customizes a demand.
type DemandOption func(*model.Demand)

// Height sets the bandwidth requirement h ∈ (0, 1]; the default is 1
// (the unit-height case).
func Height(h float64) DemandOption {
	return func(d *model.Demand) { d.Height = h }
}

// Access restricts the demand to the given networks; the default is all
// networks registered at Solve time. The list is read when AddDemand
// applies the option, and AddDemand keeps a copy, so changing the list
// after AddDemand returns does not change the demand.
func Access(trees ...int) DemandOption {
	return func(d *model.Demand) { d.Access = trees }
}

// AddDemand registers a demand between vertices u and v with the given
// profit and returns its demand id. Each demand corresponds to one processor
// in the distributed algorithm.
func (in *Instance) AddDemand(u, v int, profit float64, opts ...DemandOption) int {
	id := len(in.demands)
	in.demands = append(in.demands, model.Demand{ID: id, U: u, V: v, Profit: profit, Height: 1})
	d := &in.demands[id]
	for _, opt := range opts {
		opt(d)
	}
	d.Access = ownAccess(&in.access, d.Access)
	return id
}

// ownAccess copies an access list into *slab, the one array an instance
// keeps its demands' lists in, and returns the copy, capped at its length;
// an empty list stays nil. A copy made before the slab grows keeps the
// array it was made in, so it never moves.
func ownAccess(slab *[]int, list []int) []int {
	if len(list) == 0 {
		return nil
	}
	start := len(*slab)
	*slab = append(*slab, list...)
	return (*slab)[start:len(*slab):len(*slab)]
}

// build finalizes and validates the model instance, copying the demands
// into buf's storage (nil for a fresh copy). Every demand without an
// Access list shares one list of all networks, which nothing writes.
func (in *Instance) build(buf []model.Demand) (*model.Instance, error) {
	if in.err != nil {
		return nil, in.err
	}
	m := &model.Instance{NumVertices: in.numVertices, Trees: in.trees, Demands: slices.Grow(buf[:0], len(in.demands))}
	var all []int
	for _, d := range in.demands {
		if len(d.Access) == 0 {
			if all == nil {
				all = allTrees(len(in.trees))
			}
			d.Access = all
		}
		m.Demands = append(m.Demands, d)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("treesched: %w", err)
	}
	return m, nil
}

func allTrees(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Algorithm selects the solving strategy.
type Algorithm int

const (
	// Auto picks DistributedUnit when every demand has height 1 and
	// DistributedArbitrary otherwise. This is the default.
	Auto Algorithm = iota
	// DistributedUnit is the (7+ε)-approximation of Theorem 5.3 (or (4+ε),
	// Theorem 7.1, on line instances). Demands with height < 1 are
	// scheduled edge-disjointly; the guarantee requires heights > 1/2.
	DistributedUnit
	// DistributedArbitrary is the wide/narrow combination of Theorem 6.3
	// ((80+ε) on trees) and Theorem 7.2 ((23+ε) on lines).
	DistributedArbitrary
	// SequentialTree is the Appendix-A sequential algorithm: a
	// 3-approximation (2 for a single tree) for unit heights, with no
	// round guarantees.
	SequentialTree
	// ExactSmall solves the instance optimally by branch and bound; it
	// refuses instances with more than seq.BruteForceLimit demand
	// instances.
	ExactSmall
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case DistributedUnit:
		return "distributed-unit"
	case DistributedArbitrary:
		return "distributed-arbitrary"
	case SequentialTree:
		return "sequential-tree"
	case ExactSmall:
		return "exact-small"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures Solve and SolveLine. The zero value uses paper
// defaults: Auto algorithm, ε = 0.1, ideal decompositions, in-process
// execution.
type Options struct {
	Algorithm Algorithm
	// Epsilon controls the slackness target λ = 1-ε (default 0.1). Smaller
	// values tighten the approximation ratio but add stages.
	Epsilon float64
	Seed    int64
	// Simulate additionally executes the algorithm over the synchronous
	// message-passing simulator: one processor per demand, stepped by
	// simnet's round loop. The in-process engine
	// still runs first and supplies the dual bound; the simulated run
	// supplies the selection and profit, which are identical, and reports
	// honest round and message counts. Only the distributed algorithms
	// have a distributed execution: with SequentialTree or ExactSmall,
	// Simulate is an error.
	Simulate bool
	// SingleStage switches to the Panconesi–Sozio-style schedule
	// (λ = 1/(5+ε)); it exists for ablation studies.
	SingleStage bool
	// Decomposition selects the tree decomposition driving the layered
	// decomposition (tree instances only); default is the paper's ideal
	// decomposition.
	Decomposition engine.DecompKind
	// Parallelism bounds the shard goroutines of a Session's solves: a
	// Session keeps the warm-start cache, and a round runs the schedule of
	// each conflict component churn touched on min(Parallelism, runnable
	// components) goroutines and replays the rest. Values below 1 resolve
	// to runtime.GOMAXPROCS(0). Every other solve is cold — Solve,
	// SolveLine, Solver.Solve, and the engine solve that runs first under
	// Simulate — and runs the serial engine whatever the value: a cold
	// solve has no component outcomes to replay, and splitting one has cost
	// more than it saved at every size measured (doc.go, "Component shards
	// for replay"). The simulator's stepping pool always takes
	// runtime.GOMAXPROCS(0). Results are bit-identical at every setting.
	Parallelism int
	// Recorder observes solve-path phases (prepare, apply, component
	// decomposition, per-shard schedules, merge, greedy) and counters (warm
	// replays, granted shard workers); see doc.go, "Observability". Nil —
	// the default — costs a single pointer check per emission site.
	// Recorders observe and never steer: results are bitwise identical
	// with or without one attached. internal/obs supplies the timing
	// implementation and turns the stream into a per-window SolveReport.
	Recorder Recorder
}

// Recorder is the solve-path observability seam; obs.NewRecorder returns
// the standard timing implementation. Implementations must be safe for
// concurrent use — parallel solves emit from worker goroutines.
type Recorder = engine.Recorder

func (o *Options) normalize() {
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Parallelism < 1 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// checkSimulate rejects Simulate under an algorithm that has no
// distributed execution, rather than ignoring it.
func (o Options) checkSimulate() error {
	if o.Simulate && (o.Algorithm == SequentialTree || o.Algorithm == ExactSmall) {
		return fmt.Errorf("treesched: Simulate applies to the distributed algorithms, not %v", o.Algorithm)
	}
	return nil
}

// engineConfig is the engine Config of a solve under o, in the unit mode;
// the arbitrary-height pipeline sets each height class's mode itself.
func (o Options) engineConfig() engine.Config {
	return engine.Config{
		Mode:        engine.Unit,
		Epsilon:     o.Epsilon,
		Seed:        o.Seed,
		SingleStage: o.SingleStage,
	}
}

// slackFactor is the 1/λ factor of the schedule that ran: the multi-stage
// ξ-ladder proves λ = 1-ε, while the single-stage Panconesi–Sozio-style
// schedule only proves λ = 1/(5+ε) — its guarantee must scale by 5+ε, not
// by the ladder's tighter 1/(1-ε).
func (o Options) slackFactor() float64 {
	if o.SingleStage {
		return 5 + o.Epsilon
	}
	return 1 / (1 - o.Epsilon)
}

// Assignment is one scheduled demand in a solution.
type Assignment struct {
	Demand  int
	Network int // tree id or line resource id
	Start   int // first timeslot (line instances only; 0 for trees)
}

// Result is the outcome of a solve.
type Result struct {
	Assignments []Assignment
	// Profit is the assigned demands' total profit: the exact sum of their
	// profits, rounded once, which every algorithm reports and Verify
	// checks bit for bit.
	Profit float64
	// DualBound is a certified upper bound on the optimal profit obtained
	// from the scaled dual assignment by weak duality (ExactSmall, whose
	// Profit is optimal, reports Profit).
	DualBound float64
	// Guarantee is the proven worst-case approximation factor of the
	// algorithm that ran (e.g. 7/(1-ε)); 1 for exact solves.
	Guarantee float64

	// Rounds / Messages / MaxMessageSize report communication costs when
	// Simulate is set (Rounds counts the full fixed synchronous schedule).
	Rounds         int
	Messages       int
	MaxMessageSize int
}

// Solve runs the selected algorithm on a tree-network instance. It is
// NewSolver(opts).Solve(in): a one-shot solve takes the Solver's path, with
// a decomposition cache that lives for the one call.
func Solve(in *Instance, opts Options) (*Result, error) {
	return NewSolver(opts).Solve(in)
}

// solveTreeItems runs the framework algorithms over tree items, the tree
// path of every Solve, as solveItems does. An item carries its demand and
// network, so selected ids map to assignments directly.
func solveTreeItems(items []engine.Item, p *engine.Prepared, opts Options, unit bool) (*Result, error) {
	toAssignment := func(id int) Assignment {
		return Assignment{Demand: items[id].Demand, Network: items[id].Resource}
	}
	return solveItems(items, p, opts, unit, toAssignment)
}

// unitDemands reports whether every demand has height 1, the fact Auto
// resolves by on trees.
func unitDemands(demands []model.Demand) bool {
	for i := range demands {
		if demands[i].Height < 1 {
			return false
		}
	}
	return true
}

func solveSequential(m *model.Instance) (*Result, error) {
	if !unitDemands(m.Demands) {
		return nil, fmt.Errorf("treesched: SequentialTree handles the unit-height case only")
	}
	res, err := seq.AppendixA(m)
	if err != nil {
		return nil, err
	}
	out := &Result{Profit: res.Profit, DualBound: res.Bound, Guarantee: 3}
	if len(m.Trees) == 1 {
		out.Guarantee = 2
	}
	for _, id := range res.Selected {
		it := &res.Items[id]
		out.Assignments = append(out.Assignments, Assignment{Demand: it.Demand, Network: it.Resource})
	}
	return out, nil
}

// resolve returns the algorithm a solve runs: Auto resolves to
// DistributedUnit when every height is 1 (unit) and to
// DistributedArbitrary otherwise.
func (o Options) resolve(unit bool) Algorithm {
	switch {
	case o.Algorithm != Auto:
		return o.Algorithm
	case unit:
		return DistributedUnit
	default:
		return DistributedArbitrary
	}
}

// solveItems dispatches the framework algorithms over built items, unit
// reporting whether every height is 1. The unit-height engine solve runs
// over p, the items' preparation, or prepares them afresh when p is nil;
// the other algorithms, and a simulated run, keep state of their own.
func solveItems(items []engine.Item, p *engine.Prepared, opts Options, unit bool, toAssignment func(int) Assignment) (*Result, error) {
	cfg := opts.engineConfig()
	out := &Result{}
	var selected []int
	var err error
	switch algo := opts.resolve(unit); algo {
	case DistributedUnit:
		if p == nil {
			p = engine.PrepareRecorded(items, opts.Recorder, nil)
		}
		selected, err = runUnit(p, cfg, opts, out)
	case DistributedArbitrary:
		selected, err = runArbitrary(items, cfg, opts, out)
	case ExactSmall:
		if len(items) > seq.BruteForceLimit {
			return nil, fmt.Errorf("treesched: ExactSmall handles at most %d demand instances, got %d",
				seq.BruteForceLimit, len(items))
		}
		profit, sel := seq.Brute(items, unit)
		out.Profit = profit
		out.DualBound = profit
		out.Guarantee = 1
		selected = sel
	default:
		return nil, fmt.Errorf("treesched: unsupported algorithm %v", algo)
	}
	if err != nil {
		return nil, err
	}
	if len(selected) > 0 {
		out.Assignments = make([]Assignment, len(selected))
		for i, id := range selected {
			out.Assignments[i] = toAssignment(id)
		}
	}
	return out, nil
}

// runPrepared runs the unit-height schedule over prepared state, fills
// out's Profit, DualBound and Guarantee, and returns the selected item ids.
// runUnit and Session.Solve share it.
func runPrepared(p *engine.Prepared, cfg engine.Config, opts Options, out *Result) ([]int, error) {
	eres, err := p.Solve(cfg, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	out.Profit = eres.Profit
	out.DualBound = eres.Bound
	out.Guarantee = float64(eres.Delta+1) * opts.slackFactor()
	return eres.Selected, nil
}

// runUnit runs the unit-height schedule over p and, under Simulate, over
// the simulator. The warm-start cache stays off, so the engine solve runs
// the serial engine, the one solve a Prepared built in an arena serves.
func runUnit(p *engine.Prepared, cfg engine.Config, opts Options, out *Result) ([]int, error) {
	selected, err := runPrepared(p, cfg, opts, out)
	if err != nil {
		return nil, err
	}
	if !opts.Simulate {
		return selected, nil
	}
	dres, err := dist.RunOpts(p.Items(), cfg, dist.Options{Recorder: opts.Recorder})
	if err != nil {
		return nil, err
	}
	out.Profit = dres.Profit
	out.Rounds = dres.Stats.Rounds
	out.Messages = dres.Stats.Messages
	out.MaxMessageSize = dres.Stats.MaxMessageSize
	return dres.Selected, nil
}

func runArbitrary(items []engine.Item, cfg engine.Config, opts Options, out *Result) ([]int, error) {
	ares, err := engine.SolveArbitrary(items, cfg, opts.Recorder)
	if err != nil {
		return nil, err
	}
	delta := engine.MaxCritical(items)
	out.Profit = ares.Profit
	out.DualBound = ares.Bound
	out.Guarantee = float64((delta+1)+(2*delta*delta+1)) * opts.slackFactor()
	if !opts.Simulate {
		return ares.Selected, nil
	}
	// Distributed execution: the same §6 rule, each height class run over
	// the simulator.
	selected, profit, err := engine.SolveHeightClasses(items, cfg, func(class []engine.Item, ccfg engine.Config) ([]int, error) {
		dres, err := dist.RunOpts(class, ccfg, dist.Options{Recorder: opts.Recorder})
		if err != nil {
			return nil, err
		}
		out.Rounds += dres.Stats.Rounds
		out.Messages += dres.Stats.Messages
		out.MaxMessageSize = max(out.MaxMessageSize, dres.Stats.MaxMessageSize)
		return dres.Selected, nil
	})
	if err != nil {
		return nil, err
	}
	if math.Float64bits(profit) != math.Float64bits(ares.Profit) {
		return nil, fmt.Errorf("treesched: internal error: simulated profit %v diverged from engine %v", profit, ares.Profit)
	}
	out.Profit = profit
	return selected, nil
}
