package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/obs"
	"treesched/internal/serve"
	"treesched/internal/workload"
)

// serveBench hosts one tenant per registry pool worker, each driven by its
// own closed-loop client, so no round ever coalesces two submissions and
// serve.batch_mean stays exactly 1.
type serveBench struct {
	// shape is one tenant: disjoint networks and the initial demand set,
	// every demand pinned to one network.
	shape workload.TreeConfig
	// churn is the number of departures and of arrivals per op, all on one
	// network; op k of a tenant churns network k mod shape.Trees.
	churn int
	// warmup is the number of ops each client runs during setup.
	warmup  int
	workers int

	tenants []*tenant
	perOps  int // timed ops per tenant
	reg     *serve.Registry
	stats   [2][]serve.ActorStats // at the edges of the timed region
	hists   [2][]serve.ActorHists
}

// tenant is one instance and the state its client keeps about it.
type tenant struct {
	initial *model.Instance
	// arrivals holds churn arrivals per op, warm-up ops first; op k pins
	// its arrivals to the network it churns, access[k mod networks].
	arrivals []demandIn
	access   [][]int

	actor *serve.Actor
	rec   *obs.Recorder
	opts  treesched.Options // normalized, for the from-scratch check
	next  int               // next op index into arrivals
	// The client's own view of the live set: per network the live ids,
	// oldest first, each id's profit, and the ids holding the lowest and
	// highest profit. Departures never take those two, so the profit
	// range — and with it the Lemma 5.1 step cap in the warm-cache key —
	// never shrinks, and no op turns the whole tenant cold by chance.
	fifo         [][]int
	profit       []float64
	minID, maxID int
	live         int
	epoch        uint64
}

// newServeFleet hosts one tenant on a one-worker registry, as schedserve
// -workers 1 would, so a round may use every CPU (per-tenant Parallelism is
// GOMAXPROCS ÷ pool width). With one tenant and client per CPU instead, two
// clients' rounds share the host's two vCPUs: run interleaved with this
// shape at five seeds on a shared 2-vCPU host, that version's op_p50_ms
// spread by 0.153 of its median against 0.027 here, and its demands_per_s
// by 0.175 against 0.086.
func newServeFleet() bench {
	return &serveBench{
		shape:   workload.TreeConfig{Vertices: 256, Trees: 16, Demands: 768, ProfitRatio: 16, AccessMin: 1, AccessMax: 1},
		churn:   8,
		warmup:  64,
		workers: 1,
	}
}

func (b *serveBench) generate(seed int64, ops int) (uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	netRng := rand.New(rand.NewSource(networkSeed))
	d := newDigest()
	b.perOps = (ops + b.workers - 1) / b.workers
	b.tenants = make([]*tenant, b.workers)
	for i := range b.tenants {
		in, err := workload.RandomTreeInstance(b.shape, rng)
		if err != nil {
			return 0, err
		}
		if in.Trees, err = networks(b.shape.Trees, b.shape.Vertices, netRng); err != nil {
			return 0, err
		}
		// Arrivals come from a one-network stream; each op pins its own.
		n := b.warmup + b.perOps
		arr, err := demandStream(workload.TreeConfig{
			Vertices: b.shape.Vertices, Trees: 1, Demands: 1, ProfitRatio: b.shape.ProfitRatio,
		}, b.churn*n, rng, d)
		if err != nil {
			return 0, err
		}
		t := &tenant{initial: in, arrivals: arr, access: make([][]int, b.shape.Trees)}
		for q, tr := range in.Trees {
			t.access[q] = []int{q}
			for _, e := range tr.Edges() {
				d.ints(q, e.U, e.V)
			}
		}
		for _, dm := range in.Demands {
			d.ints(dm.U, dm.V, dm.Access[0])
			d.floats(dm.Profit)
		}
		b.tenants[i] = t
	}
	return d.sum(), nil
}

// reset puts the client's view back to the initial instance.
func (t *tenant) reset(trees int) {
	t.next, t.epoch = 0, 0
	t.fifo = make([][]int, trees)
	t.profit = t.profit[:0]
	t.minID, t.maxID = 0, 0
	for _, dm := range t.initial.Demands {
		t.fifo[dm.Access[0]] = append(t.fifo[dm.Access[0]], dm.ID)
		t.noteArrival(dm.ID, dm.Profit)
	}
	t.live = len(t.initial.Demands)
}

func (t *tenant) noteArrival(id int, p float64) {
	t.profit = append(t.profit, p) // ids are dense and ascending
	if p < t.profit[t.minID] {
		t.minID = id
	}
	if p > t.profit[t.maxID] {
		t.maxID = id
	}
}

// instance builds the tenant's initial instance, as a caller would.
func (t *tenant) instance() (*treesched.Instance, error) {
	inst := treesched.NewInstance(t.initial.NumVertices)
	for _, tr := range t.initial.Trees {
		edges := make([][2]int, 0, tr.N()-1)
		for _, e := range tr.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		if _, err := inst.AddTree(edges); err != nil {
			return nil, err
		}
	}
	for _, dm := range t.initial.Demands {
		inst.AddDemand(dm.U, dm.V, dm.Profit, treesched.Access(dm.Access...))
	}
	return inst, nil
}

func (b *serveBench) setup(tr *tracer) error {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	id := tr.begin("serve.NewRegistry", -1, root)
	b.reg = serve.NewRegistry(b.workers)
	tr.end(id)
	for i, t := range b.tenants {
		layeredSpans(tr, root, t.initial.Trees)
		t.reset(b.shape.Trees)
		// Per-tenant parallelism as cmd/schedserve budgets it.
		opts := treesched.Options{Parallelism: max(1, runtime.GOMAXPROCS(0)/b.reg.Workers())}
		t.rec = nil
		if tr != nil {
			t.rec = obs.NewRecorder()
			opts.Recorder = t.rec
		}
		inst, err := t.instance()
		if err != nil {
			return err
		}
		id := tr.begin("serve.Registry.Create", -1, root)
		t.actor, err = b.reg.Create(fmt.Sprintf("tenant%d", i), inst, opts)
		tr.end(id)
		if err != nil {
			return err
		}
		t.opts = treesched.NewSolver(opts).Options()
	}
	for _, ops := range b.drive(b.warmup, tr, root) {
		for k, op := range ops {
			if op.failed {
				return fmt.Errorf("warm-up op %d failed", k)
			}
		}
	}
	for _, t := range b.tenants {
		takePhases(t.rec) // drop the setup window
	}
	return nil
}

// drive runs n ops on every tenant, one client goroutine each, and returns
// each tenant's ops.
func (b *serveBench) drive(n int, tr *tracer, parent int) [][]opSample {
	out := make([][]opSample, len(b.tenants))
	var wg sync.WaitGroup
	for i, t := range b.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = t.drive(n, b.churn, i*b.perOps, tr, parent)
		}()
	}
	wg.Wait()
	return out
}

// drive is one client: n ops in a closed loop, each one Submit that the
// client waits for, then checks against its own view of the live set.
func (t *tenant) drive(n, churn, opBase int, tr *tracer, parent int) []opSample {
	ops := make([]opSample, n)
	for j := range ops {
		k := t.next
		t.next++
		q := k % len(t.fifo)
		remove, rest := t.departures(q, churn)
		c := treesched.Churn{Remove: remove, Add: make([]treesched.NewDemand, churn)}
		for i, a := range t.arrivals[k*churn : (k+1)*churn] {
			c.Add[i] = treesched.NewDemand{U: int(a.u), V: int(a.v), Profit: a.profit, Access: t.access[q]}
		}
		cpu, start := cpuTime(), now()
		ids, epoch, err := t.actor.Submit(c)
		end, cpu := now(), cpuTime()-cpu
		tr.record("serve.Actor.Submit", opBase+j, parent, start, end)
		op := opSample{start: start, end: end, cpu: cpu, demands: len(remove) + len(c.Add), phases: takePhases(t.rec)}
		if err != nil && !errors.Is(err, serve.ErrSolveFailed) {
			op.failed = true // not applied: the client's view stands
			ops[j] = op
			continue
		}
		t.fifo[q] = rest
		for i, id := range ids {
			if id != len(t.profit) {
				err = fmt.Errorf("arrival id %d, want %d", id, len(t.profit))
			}
			t.fifo[q] = append(t.fifo[q], id)
			t.noteArrival(id, c.Add[i].Profit)
		}
		t.live += len(ids) - len(remove)
		snap := t.actor.Snapshot()
		if err != nil || len(ids) != len(c.Add) || epoch <= t.epoch || snap.Epoch != epoch || snap.Live != t.live {
			op.failed = true
		}
		t.epoch = epoch
		op.profit, op.bound = snap.Result.Profit, snap.Result.DualBound
		op.published = snap.At.Sub(clock)
		ops[j] = op
	}
	return ops
}

// departures picks the n oldest live demands on network q other than the
// tenant's lowest- and highest-profit ones, and returns them with the
// network's remaining ids.
func (t *tenant) departures(q, n int) (remove, rest []int) {
	rest = make([]int, 0, len(t.fifo[q]))
	for _, id := range t.fifo[q] {
		if len(remove) < n && id != t.minID && id != t.maxID {
			remove = append(remove, id)
		} else {
			rest = append(rest, id)
		}
	}
	return remove, rest
}

func (b *serveBench) run(tr *tracer) []opSample {
	b.stats[0], b.hists[0] = b.snapshotStats()
	timed := tr.begin("timed", -1, -1)
	per := b.drive(b.perOps, tr, timed)
	tr.end(timed)
	b.stats[1], b.hists[1] = b.snapshotStats()
	var ops []opSample
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops
}

func (b *serveBench) snapshotStats() ([]serve.ActorStats, []serve.ActorHists) {
	st := make([]serve.ActorStats, len(b.tenants))
	hs := make([]serve.ActorHists, len(b.tenants))
	for i, t := range b.tenants {
		st[i], hs[i] = t.actor.Stats(), t.actor.Hists()
	}
	return st, hs
}

// check requires one round per submission on every tenant, and re-derives
// each tenant's final snapshot from scratch over the items it claims.
func (b *serveBench) check(ops []opSample) (uint64, error) {
	d := newDigest()
	for _, op := range ops {
		d.floats(op.profit, op.bound)
	}
	var errs []error
	for i, t := range b.tenants {
		s0, s1 := b.stats[0][i], b.stats[1][i]
		if rounds, subs := s1.Rounds-s0.Rounds, s1.Submissions-s0.Submissions; rounds != subs || s1.Failed != s0.Failed {
			errs = append(errs, fmt.Errorf("tenant %d: %d submissions in %d rounds, %d failed", i, subs, rounds, s1.Failed-s0.Failed))
		}
		snap := t.actor.Snapshot()
		d.ints(int(snap.Epoch), snap.Live)
		d.ints(snap.Accepted...)
		if err := reproduce(snap, t.opts); err != nil {
			errs = append(errs, fmt.Errorf("tenant %d epoch %d: %w", i, snap.Epoch, err))
		}
	}
	return d.sum(), errors.Join(errs...)
}

// reproduce re-solves a snapshot's item set from scratch and requires the
// published result bit for bit.
func reproduce(snap *serve.Snapshot, opts treesched.Options) error {
	items := snap.Items()
	res, err := engine.PrepareWorkers(items, opts.Parallelism).RunParallel(engine.Config{
		Mode: engine.Unit, Epsilon: opts.Epsilon, Seed: opts.Seed,
	}, opts.Parallelism)
	if err != nil {
		return err
	}
	pub := snap.Result
	if math.Float64bits(pub.Profit) != math.Float64bits(res.Profit) ||
		math.Float64bits(pub.DualBound) != math.Float64bits(res.Bound) ||
		len(pub.Assignments) != len(res.Selected) {
		return fmt.Errorf("published (%v, %v), scratch (%v, %v)", pub.Profit, pub.DualBound, res.Profit, res.Bound)
	}
	for i, id := range res.Selected {
		if a := pub.Assignments[i]; a.Demand != items[id].Demand || a.Network != items[id].Resource {
			return fmt.Errorf("assignment %d differs from scratch", i)
		}
	}
	return nil
}

func (b *serveBench) layers(ops []opSample, m map[string]float64) {
	var rounds, subs uint64
	var roundLat time.Duration
	var reprepares, cold, replayed, resolved int
	var solveSum, waitSum float64
	var solveN, waitN int64
	for i := range b.tenants {
		s0, s1 := b.stats[0][i], b.stats[1][i]
		h0, h1 := b.hists[0][i], b.hists[1][i]
		rounds += s1.Rounds - s0.Rounds
		subs += s1.Submissions - s0.Submissions
		roundLat += s1.TotalLatency - s0.TotalLatency
		reprepares += s1.Session.Reprepares - s0.Session.Reprepares
		cold += s1.Session.ColdSolves - s0.Session.ColdSolves
		replayed += s1.Session.ComponentsReplayed - s0.Session.ComponentsReplayed
		resolved += s1.Session.ComponentsResolved - s0.Session.ComponentsResolved
		solveSum += h1.SolveSeconds.Sum - h0.SolveSeconds.Sum
		solveN += h1.SolveSeconds.Count - h0.SolveSeconds.Count
		waitSum += h1.QueueWait.Sum - h0.QueueWait.Sum
		waitN += h1.QueueWait.Count - h0.QueueWait.Count
	}
	// A Submit span is queue wait, the round (ActorStats.TotalLatency:
	// update, solve and accounting), publication (buildSnapshot, ending at
	// Snapshot.At, and the pointer swap) and the handoff from Snapshot.At
	// until the client has its reply. Publication is what remains.
	var submit, handoff time.Duration
	for _, op := range ops {
		submit += op.latency()
		handoff += op.end - op.published
	}
	n := float64(len(ops))
	roundMs := float64(roundLat) / 1e6 / float64(rounds)
	m["serve.round_ms"] = roundMs
	m["treesched.session_solve_ms"] = solveSum * 1e3 / float64(solveN)
	m["serve.queue_wait_ms"] = waitSum * 1e3 / float64(waitN)
	m["serve.handoff_ms"] = float64(handoff) / 1e6 / n
	m["serve.publish_ms"] = float64(submit)/1e6/n - m["serve.handoff_ms"] - m["serve.queue_wait_ms"] - roundMs
	m["serve.batch_mean"] = float64(subs) / float64(rounds)
	m["treesched.reprepares"] = float64(reprepares)
	m["engine.cold_solves"] = float64(cold)
	if replayed+resolved > 0 {
		m["engine.warm_hit_ratio"] = float64(replayed) / float64(replayed+resolved)
	}
}

func (b *serveBench) info(w io.Writer) {
	for i := range b.tenants {
		s0, s1 := b.stats[0][i], b.stats[1][i]
		fmt.Fprintf(w, "# tenant %d: %d rounds, %d submissions, %d reprepares, %d cold solves in the timed region\n",
			i, s1.Rounds-s0.Rounds, s1.Submissions-s0.Submissions,
			s1.Session.Reprepares-s0.Session.Reprepares, s1.Session.ColdSolves-s0.Session.ColdSolves)
	}
}

func (b *serveBench) close() {
	if b.reg != nil {
		b.reg.Close()
		b.reg = nil
	}
	for _, t := range b.tenants {
		t.actor, t.rec = nil, nil
	}
}
