package engine

import (
	"runtime"
	"sync"
)

// This file implements the second level of the engine's parallelism: row
// partitioning *inside* one conflict component. The sharded pipeline
// (parallel.go) only scales while the conflict graph has many components; a
// contended instance — every unit-tree bench — is one giant component, and
// there the per-step hot loops are the only parallelism left. Those loops
// are embarrassingly data-parallel over dense index rows:
//
//   - a step's raise batch applies one raise rule per independent-set
//     member,
//   - the greedy second phase evaluates one feasibility predicate per
//     step member,
//   - the λ scan folds one constraint ratio per item.
//
// The satisfaction scan is not partitioned: it re-tests only the items that
// can still be unsatisfied (engine.go's firstPhase). On a contended
// 384-demand, three-network instance that is about ten rows per step on
// average, too few to split.
//
// Determinism is preserved by construction, not by locking: a partitioned
// kernel only ever *reads* shared state and writes per-row results into a
// shared flag array at the row's own index, and the single coordinating
// goroutine then collects the flags in ascending row order. Every
// floating-point operation whose result is kept happens per row, on the
// same operands, in the same per-row instruction order as the serial
// engine; only the wall-clock interleaving of independent rows changes.
// The one fold that crosses rows — λ — is a pure min, which is exact and
// order-independent, so per-chunk minima merge bitwise. Raises inside one
// step are independent because the step is an independent set of the
// conflict graph: two conflicting items share a demand or an edge, so
// non-conflicting items touch disjoint α slots and disjoint critical-edge
// β ranges (see raiseAll). Partitioning choices — lane count, grain, chunk
// boundaries — therefore never reach the results, which is what makes the
// worker count a pure performance knob at both levels.
//
// The Luby election is not partitioned. Its group form (package mis) costs
// O(Σ (1 + |path|)) per iteration over the step's live items, too little to
// pay for lane handoffs: a partitioned win-check measured no faster than
// the inline one on a contended single component. Its draws are serial
// anyway: a splitmix64 stream is a sequential object, and the per-owner
// draw order is the bit-compatibility contract with package dist.

// intraGrain is the minimum number of dense rows a lane must receive before
// a kernel is worth partitioning; below 2×grain every kernel runs inline on
// the coordinating goroutine. A var, not a const, so equivalence tests can
// lower it and force multi-lane execution on instances small enough to
// enumerate exhaustively.
var intraGrain = 64

// intraLaneCap overrides the host-parallelism clamp when positive; tests
// use it to exercise many lanes on a single-CPU host. 0 means clamp to
// runtime.GOMAXPROCS(0): lanes beyond the scheduler's parallelism only add
// handoff overhead, and — determinism being lane-count-independent — the
// clamp can never change a result.
var intraLaneCap = 0

func laneCap() int {
	if intraLaneCap > 0 {
		return intraLaneCap
	}
	return runtime.GOMAXPROCS(0)
}

// intraLanes resolves a requested row-parallel budget against the host
// clamp and the instance size: a pool is only worth spawning when the
// dense rows can fill at least two grains.
func intraLanes(budget, rows int) int {
	if budget > laneCap() {
		budget = laneCap()
	}
	if rows < 2*intraGrain {
		return 1
	}
	return budget
}

// intraTask is one contiguous row chunk handed to a helper lane.
type intraTask struct {
	fn     func(lo, hi int)
	lo, hi int
	done   *sync.WaitGroup
}

// intraPool is a persistent fork-join pool for row-partitioned kernels: a
// fixed set of helper goroutines fed from one channel, owned by exactly one
// coordinating goroutine (the serial solve, or one shard worker). It exists
// so the per-step kernels pay one channel handoff per chunk instead of one
// goroutine spawn, and so per-worker scratch (solveScratch) stays
// single-owner: helpers only touch the rows of the chunk they were handed.
//
// A nil *intraPool is valid and runs every kernel inline — the serial
// engine passes nil and executes byte-for-byte the same code it always has.
type intraPool struct {
	lanes int
	work  chan intraTask
}

// newIntraPool spawns a pool of the given width; lanes ≤ 1 returns nil (the
// inline pool). The coordinating goroutine acts as lane 0, so only lanes-1
// helpers are spawned.
func newIntraPool(lanes int) *intraPool {
	if lanes <= 1 {
		return nil
	}
	p := &intraPool{lanes: lanes, work: make(chan intraTask, lanes)}
	for i := 1; i < lanes; i++ {
		go p.helper()
	}
	return p
}

func (p *intraPool) helper() {
	for t := range p.work {
		t.fn(t.lo, t.hi)
		t.done.Done()
	}
}

// close releases the helper goroutines. Safe on nil.
func (p *intraPool) close() {
	if p != nil {
		close(p.work)
	}
}

// Run partitions rows [0,n) into contiguous chunks and executes fn over
// them, returning only when every chunk is done. fn must be safe to call
// concurrently on disjoint ranges. Small n (or a nil pool) runs inline, so
// callers need no size checks of their own. The chunk boundaries are a
// function of (n, lanes, grain) alone — but nothing downstream may depend
// on them: kernels write per-row outputs, and the caller merges rows in
// ascending order after Run returns.
func (p *intraPool) Run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	lanes := 0
	if p != nil {
		lanes = p.lanes
		if m := n / intraGrain; lanes > m {
			lanes = m
		}
	}
	if lanes < 2 {
		fn(0, n)
		return
	}
	chunk := (n + lanes - 1) / lanes
	var done sync.WaitGroup
	queued := 0
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		done.Add(1)
		queued++
		p.work <- intraTask{fn: fn, lo: lo, hi: hi, done: &done}
	}
	// Lane 0 is the caller: it runs the first chunk while the helpers chew
	// through the queued ones, then joins. queued ≤ lanes-1 keeps every send
	// within the channel's buffer, so Run never blocks before working.
	fn(0, chunk)
	if queued > 0 {
		done.Wait()
	}
}
