package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/obs"
	"treesched/internal/workload"
)

// solverBench is one client calling Solver.Solve on a fresh demand set per
// op over networks fixed for the whole run.
type solverBench struct {
	// shape is one op's instance: Vertices and Trees describe the fixed
	// networks, the rest each op's demand set.
	shape    workload.TreeConfig
	simulate bool
	// warmup is how many distinct instances setup solves. For the cached
	// path it is the Solver's prepared-cache bound, so a cache of that bound
	// or less is full before timing starts and every timed op evicts one
	// entry. treesched.cache_entries reports how many entries it held.
	warmup int

	trees []*graph.Tree
	edges [][][2]int
	sets  []demandIn // shape.Demands per op: warm-up ops, then timed ops

	solver  *treesched.Solver
	rec     *obs.Recorder
	results []*treesched.Result
	cache   [2]treesched.CacheStats // at the edges of the timed region
}

// solverCacheCapacity is the Solver's prepared-instance LRU bound
// (maxCachedPrepared in solver.go) when this benchmark was written. setup
// does not require the cache to hold exactly this many entries, so a change
// that shrinks, reshapes or removes the bound is measured, not refused.
const solverCacheCapacity = 128

// newSolveContended is half the demands of schedbench's unit-tree/m=768
// shape, on smaller trees so most ops stay one conflict component. At the
// full shape the filled cache held about 800 MiB of heap (1.4 GiB peak RSS)
// and magnified the shared 2-vCPU host's drift: run in turns with a fixed
// CPU loop, its op_p50_ms moved by 32% while the loop moved by 8% and this
// shape by 11%, and its median moved by 30% between two sets of runs of the
// same code. This shape peaks at about 510 MiB in a 30-second run.
func newSolveContended() bench {
	return &solverBench{
		shape:  workload.TreeConfig{Vertices: 256, Trees: 3, Demands: 384, ProfitRatio: 16, AccessMin: 1, AccessMax: 3},
		warmup: solverCacheCapacity,
	}
}

func newDistFleet() bench {
	return &solverBench{
		shape:    workload.TreeConfig{Vertices: 64, Trees: 32, Demands: 2048, ProfitRatio: 16, AccessMin: 1, AccessMax: 1},
		simulate: true,
		warmup:   2,
	}
}

func (b *solverBench) generate(seed int64, ops int) (uint64, error) {
	d := newDigest()
	var err error
	if b.trees, err = networks(b.shape.Trees, b.shape.Vertices, rand.New(rand.NewSource(networkSeed))); err != nil {
		return 0, err
	}
	b.edges = make([][][2]int, len(b.trees))
	for q, t := range b.trees {
		for _, e := range t.Edges() {
			b.edges[q] = append(b.edges[q], [2]int{e.U, e.V})
			d.ints(q, e.U, e.V)
		}
	}
	// The generator's demand stream, in order, is every op's demand set:
	// chunk k is op k's.
	b.sets, err = demandStream(b.shape, (b.warmup+ops)*b.shape.Demands, rand.New(rand.NewSource(seed)), d)
	return d.sum(), err
}

// instance builds demand set k on the fixed networks, as a caller would.
func (b *solverBench) instance(k int) *treesched.Instance {
	inst := treesched.NewInstance(b.shape.Vertices)
	for _, es := range b.edges {
		if _, err := inst.AddTree(es); err != nil {
			panic(err) // generated trees are valid by construction
		}
	}
	m := b.shape.Demands
	for _, dm := range b.sets[k*m : (k+1)*m] {
		inst.AddDemand(int(dm.u), int(dm.v), dm.profit, treesched.Access(dm.networks()...))
	}
	return inst
}

func (b *solverBench) setup(tr *tracer) error {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	layeredSpans(tr, root, b.trees)
	opts := treesched.Options{Simulate: b.simulate}
	b.rec = nil
	if tr != nil {
		b.rec = obs.NewRecorder()
		opts.Recorder = b.rec
	}
	id := tr.begin("treesched.NewSolver", -1, root)
	b.solver = treesched.NewSolver(opts)
	tr.end(id)
	for k := 0; k < b.warmup; k++ {
		inst := b.instance(k)
		id := tr.begin("treesched.Solver.Solve", -1, root)
		_, err := b.solver.Solve(inst)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("warm-up solve %d: %w", k, err)
		}
	}
	takePhases(b.rec) // drop the warm-up window
	return nil
}

func (b *solverBench) run(tr *tracer) []opSample {
	n := len(b.sets)/b.shape.Demands - b.warmup
	ops := make([]opSample, n)
	b.results = make([]*treesched.Result, n)
	b.cache[0] = b.solver.CacheStats()
	timed := tr.begin("timed", -1, -1)
	for k := range ops {
		inst := b.instance(b.warmup + k)
		cpu, start := cpuTime(), now()
		res, err := b.solver.Solve(inst)
		end, cpu := now(), cpuTime()-cpu
		tr.record("treesched.Solver.Solve", k, timed, start, end)
		ops[k] = opSample{start: start, end: end, cpu: cpu, demands: b.shape.Demands, failed: err != nil, phases: takePhases(b.rec)}
		if err == nil {
			ops[k].profit, ops[k].bound = res.Profit, res.DualBound
			b.results[k] = res
		}
	}
	tr.end(timed)
	b.cache[1] = b.solver.CacheStats()
	return ops
}

// check verifies every op's schedule against its instance and its profit
// against its certified bound; with Simulate, the first op must also equal
// an in-process solve of the same instance bit for bit.
func (b *solverBench) check(ops []opSample) (uint64, error) {
	d := newDigest()
	for k, res := range b.results {
		if res == nil {
			continue
		}
		if err := treesched.Verify(b.instance(b.warmup+k), res); err != nil || !(res.Profit <= res.DualBound) {
			ops[k].failed = true
		}
		d.floats(res.Profit, res.DualBound)
		d.ints(len(res.Assignments), res.Rounds, res.Messages, res.MaxMessageSize)
		for _, a := range res.Assignments {
			d.ints(a.Demand, a.Network)
		}
	}
	if b.simulate && len(b.results) > 0 && b.results[0] != nil {
		ref, err := treesched.NewSolver(treesched.Options{}).Solve(b.instance(b.warmup))
		if err != nil || !sameSchedule(ref, b.results[0]) {
			ops[0].failed = true
		}
	}
	return d.sum(), nil
}

func sameSchedule(a, b *treesched.Result) bool {
	if math.Float64bits(a.Profit) != math.Float64bits(b.Profit) || len(a.Assignments) != len(b.Assignments) {
		return false
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			return false
		}
	}
	return true
}

func (b *solverBench) layers(ops []opSample, m map[string]float64) {
	n := float64(len(ops))
	var gap float64
	for _, op := range ops {
		gap += float64(op.latency())
		if p := op.phases; p != nil {
			for _, ph := range []engine.Phase{engine.PhasePrepare, engine.PhaseSolve,
				engine.PhaseDistSetup, engine.PhaseDistSim, engine.PhaseDistAssemble} {
				gap -= float64(p.ns[ph])
			}
		}
	}
	m["treesched.solve_gap_ms"] = gap / n / 1e6
	hits := b.cache[1].Prepared.Hits - b.cache[0].Prepared.Hits
	lookups := hits + b.cache[1].Prepared.Misses - b.cache[0].Prepared.Misses
	if lookups > 0 {
		m["treesched.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	m["treesched.cache_entries"] = float64(b.cache[1].Prepared.Len)
	var rounds, messages float64
	for _, res := range b.results {
		if res != nil {
			rounds += float64(res.Rounds)
			messages += float64(res.Messages)
			m["simnet.max_message_size"] = max(m["simnet.max_message_size"], float64(res.MaxMessageSize))
		}
	}
	m["dist.schedule_rounds"] = rounds / n
	m["simnet.messages"] = messages / n
}

func (b *solverBench) info(w io.Writer) {
	st := b.solver.CacheStats()
	fmt.Fprintf(w, "# solver cache: prepared len=%d hits=%d misses=%d; layouts len=%d\n",
		st.Prepared.Len, st.Prepared.Hits, st.Prepared.Misses, st.Layouts.Len)
	if b.simulate && len(b.results) > 0 && b.results[0] != nil {
		r := b.results[0]
		fmt.Fprintf(w, "# first op: %d schedule rounds, %d messages, max message %d\n", r.Rounds, r.Messages, r.MaxMessageSize)
	}
}

func (b *solverBench) close() {
	b.solver, b.rec, b.results = nil, nil, nil
}

// networkSeed draws every workload's networks. They are part of the
// workload, like a deployment's topology, and stay the same under every
// --seed, which varies only the demands, so runs at different seeds differ
// in traffic, not in the deployment they run on.
const networkSeed = 1

// networks draws n random trees on the given vertex count.
func networks(n, vertices int, rng *rand.Rand) ([]*graph.Tree, error) {
	trees := make([]*graph.Tree, n)
	for q := range trees {
		t, err := workload.Tree(workload.Random, vertices, rng)
		if err != nil {
			return nil, err
		}
		trees[q] = t
	}
	return trees, nil
}

// layeredSpans times engine.LayeredForTree on each network during a traced
// setup, for decomp.layered_ms; untraced setups skip it.
func layeredSpans(tr *tracer, parent int, trees []*graph.Tree) {
	if tr == nil {
		return
	}
	for _, t := range trees {
		id := tr.begin("engine.LayeredForTree", -1, parent)
		if _, err := engine.LayeredForTree(t, engine.IdealDecomp); err != nil {
			panic(err) // generated trees are valid by construction
		}
		tr.end(id)
	}
}

// digest is an FNV-64a hash over the exact bits of inputs or outputs, so
// two runs at one seed print identical digests or differ somewhere real.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) ints(vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		u := uint64(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.ints(int(math.Float64bits(v)))
	}
}

// demandIn is one generated demand, kept without pointers (networks as a
// bit set) so the benchmark's own inputs add little to the heap the
// program's garbage collector marks, or to peak_rss_mb.
type demandIn struct {
	u, v   int32
	profit float64
	access uint64
}

func (dm demandIn) networks() []int {
	var out []int
	for q := 0; q < 64; q++ {
		if dm.access&(1<<q) != 0 {
			out = append(out, q)
		}
	}
	return out
}

// demandStream draws n demands of the shape's distribution (endpoints,
// profits, accessible networks; unit heights) and adds them to the digest.
// It calls the generator in chunks so its transient model values stay
// small next to what the program itself holds.
func demandStream(shape workload.TreeConfig, n int, rng *rand.Rand, d *digest) ([]demandIn, error) {
	const chunk = 1 << 14
	if shape.Trees > 64 {
		return nil, fmt.Errorf("%d networks do not fit a demand's network set", shape.Trees)
	}
	out := make([]demandIn, 0, n)
	for len(out) < n {
		cfg := shape
		cfg.Demands = min(chunk, n-len(out))
		in, err := workload.RandomTreeInstance(cfg, rng)
		if err != nil {
			return nil, err
		}
		for _, dm := range in.Demands {
			di := demandIn{u: int32(dm.U), v: int32(dm.V), profit: dm.Profit}
			for _, q := range dm.Access {
				di.access |= 1 << q
			}
			out = append(out, di)
			d.ints(dm.U, dm.V, int(di.access))
			d.floats(dm.Profit, dm.Height)
		}
	}
	return out, nil
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
