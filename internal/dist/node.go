package dist

import (
	"fmt"

	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/simnet"
)

// raiseRec is one phase-1 raise performed by a node, stamped with the flat
// step index of the fixed schedule so the coordinator can reassemble the
// global raise history in schedule order.
type raiseRec struct {
	Step  int32
	Item  int32
	Delta float64
}

// node is one processor of the distributed algorithm. All shape-like state
// (schedule, views, conflict structure, topology) lives in the shared
// read-only runContext; the node itself owns only what genuinely varies per
// processor — its dense local dual (one α slot plus the β copies on its
// items' paths), its splitmix64 stream, the live set of the current step,
// pooled outbox buffers, and its raise log. Per-demand resident state is a
// few dozen bytes plus the local dual, which is what makes one million
// processors fit in memory.
type node struct {
	ctx       *runContext
	id        int32
	own       []int32           // global ids of owned items, ascending (shared arena)
	views     []engine.ItemView // local views aligned with own (shared arena)
	edges     []int32           // sorted global β indices tracked locally (shared arena)
	neighbors []int             // ctx.topology[id] (shared)

	core engine.Core // mode + node-local dense dual
	rng  engine.Stream

	live        []int32     // positions into own of live items, ascending
	drawn       []float64   // priorities aligned with live
	wins        []bool      // election scratch aligned with live
	recvDraws   []drawEntry // draws delivered this announce round (scratch)
	critScratch []int32     // local β indices of one announced critical set

	out      []simnet.Message // pooled outbox
	setup    setupPayload
	drawOut  []drawPayload  // per topology neighbor, pooled entry slices
	raiseOut []raisePayload // per topology neighbor, pooled entry slices

	raises []raiseRec
	done   bool
}

// newNodes constructs the processor nodes over the shared context. Each
// node's dual is dense over its local edge numbering — no interning maps,
// no index — and its PRNG stream is seeded from the run seed and its
// external owner id, exactly as the engine derives per-owner streams, so
// draws coincide.
func (ctx *runContext) newNodes() []*node {
	nodes := make([]*node, len(ctx.nodeItems))
	for i := range nodes {
		deg := len(ctx.topology[i])
		nodes[i] = &node{
			ctx:       ctx,
			id:        int32(i),
			own:       ctx.nodeItems[i],
			views:     ctx.local[i],
			edges:     ctx.nodeEdges[i],
			neighbors: ctx.topology[i],
			core:      engine.Core{Mode: ctx.mode, Dual: dual.NewDense(1, len(ctx.nodeEdges[i]))},
			rng:       engine.NewStream(ctx.seed, ctx.nodeOwner[i]),
			drawOut:   make([]drawPayload, deg),
			raiseOut:  make([]raisePayload, deg),
		}
	}
	return nodes
}

// Round implements simnet.Node.
func (n *node) Round(round int, inbox []simnet.Message) []simnet.Message {
	if round == 0 {
		return n.sendSetup()
	}
	n.recvDraws = n.recvDraws[:0]
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *setupPayload:
			// Conflict structure is read from the shared layout; the setup
			// broadcast exists for its honest round/byte accounting.
		case *drawPayload:
			n.recvDraws = append(n.recvDraws, p.Draws...)
		case *raisePayload:
			n.absorbRaises(p)
		}
	}

	var out []simnet.Message
	pos := round - 1
	if t := pos / n.ctx.period; t < n.ctx.totalSteps {
		switch rel := pos % n.ctx.period; {
		case rel == n.ctx.period-1: // settle: final announcements landed above
			if len(n.live) > 0 {
				panic(fmt.Sprintf("dist: node %d: step %d: %d items still live after Luby budget %d; raise LubyBudgetFor",
					n.id, t, len(n.live), n.ctx.budget))
			}
		case rel%2 == 0: // draw sub-round of Luby iteration rel/2
			if rel == 0 {
				n.beginStep(t)
			}
			out = n.sendDraws()
		default: // announce sub-round: elect winners, raise, announce
			out = n.electAndRaise(t)
		}
	}
	if round >= n.ctx.lastRound {
		n.finalCheck()
		n.done = true
	}
	return out
}

// Done implements simnet.Node: a node is done once it has executed the
// final round of the fixed schedule.
func (n *node) Done() bool { return n.done }

// NextActiveRound implements simnet.Node: with no messages in flight the
// dual state is frozen, so the node can compute the next round at which it
// would act spontaneously — the next sub-round of an election it is still
// part of, else the first step of a future (epoch, stage) for which it
// holds an unsatisfied item, else the schedule's final round (where it must
// wake to terminate). The answer is a pure function of the frozen state,
// satisfying the simulator's stability contract.
//
//schedvet:hot
func (n *node) NextActiveRound(now int) int {
	if n.done {
		return -1
	}
	if len(n.live) > 0 {
		return now + 1
	}
	ctx := n.ctx
	t := 0
	if now >= 1 {
		t = (now-1)/ctx.period + 1 // first step starting strictly after now
	}
	for t < ctx.totalSteps {
		epoch, _, iter, thresh := ctx.plan.StepAt(t)
		if n.hasUnsatisfied(epoch, thresh) {
			return 1 + t*ctx.period
		}
		t += ctx.plan.StepCap - iter // state is frozen: skip the rest of the stage
	}
	if ctx.lastRound > now {
		return ctx.lastRound
	}
	return now + 1
}

//schedvet:hot
func (n *node) hasUnsatisfied(epoch int, thresh float64) bool {
	items := n.ctx.items
	for i := range n.own {
		if items[n.own[i]].Group == epoch && n.core.Unsatisfied(&n.views[i], thresh) {
			return true
		}
	}
	return false
}

// sendSetup broadcasts the node's item ids to its topology neighbors in
// round 0.
func (n *node) sendSetup() []simnet.Message {
	if len(n.neighbors) == 0 {
		return nil
	}
	n.setup.Items = n.own
	out := n.out[:0]
	for _, to := range n.neighbors {
		out = append(out, simnet.Message{From: int(n.id), To: to, Payload: &n.setup})
	}
	n.out = out
	return out
}

// beginStep computes the node's live set for step t: its items in the
// step's epoch whose dual constraints miss the stage threshold. Crossing a
// stage boundary, it first asserts the invariant the engine enforces with
// its step loop: the previous stage must have satisfied all of the node's
// items in its epoch before running out of step slots (Lemma 5.1's cap).
// A node holding a violating item is guaranteed to execute this round: the
// item is also unsatisfied at the new, higher threshold, so NextActiveRound
// names exactly this step start. Epoch boundaries are covered by finalCheck.
func (n *node) beginStep(t int) {
	epoch, stage, _, thresh := n.ctx.plan.StepAt(t)
	if t > 0 {
		pEpoch, pStage, _, pThresh := n.ctx.plan.StepAt(t - 1)
		if pEpoch == epoch && pStage != stage && n.hasUnsatisfied(pEpoch, pThresh) {
			panic(fmt.Sprintf("dist: node %d: epoch %d stage %d exhausted %d steps with items unsatisfied; Lemma 5.1 cap violated",
				n.id, pEpoch, pStage, n.ctx.plan.StepCap))
		}
	}
	n.live = n.live[:0]
	items := n.ctx.items
	for i := range n.own {
		if items[n.own[i]].Group == epoch && n.core.Unsatisfied(&n.views[i], thresh) {
			n.live = append(n.live, int32(i))
		}
	}
}

// sendDraws draws a fresh priority for every live item (ascending item
// order, matching the engine's draw schedule) and buckets each draw into
// the pooled per-neighbor payloads of the neighbors owning a conflicting
// item.
//
//schedvet:hot
func (n *node) sendDraws() []simnet.Message {
	if len(n.live) == 0 {
		return nil
	}
	if cap(n.drawn) < len(n.live) {
		n.drawn = make([]float64, len(n.live))
	}
	n.drawn = n.drawn[:len(n.live)]
	for j := range n.drawOut {
		n.drawOut[j].Draws = n.drawOut[j].Draws[:0]
	}
	ctx := n.ctx
	for i, pos := range n.live {
		x := n.own[pos]
		pr := n.rng.Float64()
		n.drawn[i] = pr
		for _, j := range ctx.targets[x] {
			n.drawOut[j].Draws = append(n.drawOut[j].Draws, drawEntry{Item: x, Priority: pr})
		}
	}
	out := n.out[:0]
	for j := range n.drawOut {
		if len(n.drawOut[j].Draws) > 0 {
			out = append(out, simnet.Message{From: int(n.id), To: n.neighbors[j], Payload: &n.drawOut[j]})
		}
	}
	n.out = out
	return out
}

// electAndRaise decides, for each live item, whether it won this Luby
// iteration (it beats every live conflicting item by priority, ties broken
// by item id — the engine's rule verbatim), performs the winners' raises
// through the shared protocol core, and announces them. A draw received
// for remote item w is exactly "w is live this iteration", so the
// conjunction runs over the delivered draw entries filtered by the §2
// conflict test over the shared member lists (runContext.conflict) — no
// per-node conflict sets needed. Any win clears the whole
// live set: a node's items share its demand, so they all conflict with the
// winner.
//
//schedvet:hot
func (n *node) electAndRaise(t int) []simnet.Message {
	if len(n.live) == 0 {
		return nil
	}
	ctx := n.ctx
	if cap(n.wins) < len(n.live) {
		n.wins = make([]bool, len(n.live))
	}
	wins := n.wins[:len(n.live)]
	for i := range wins {
		wins[i] = true
	}
	for i, pi := range n.live {
		x := n.own[pi]
		px := n.drawn[i]
		for j, pj := range n.live {
			if i == j {
				continue
			}
			w := n.own[pj]
			if pw := n.drawn[j]; pw < px || (pw == px && w < x) {
				wins[i] = false
				break
			}
		}
	}
	for _, d := range n.recvDraws {
		for i, pi := range n.live {
			if !wins[i] {
				continue
			}
			x := n.own[pi]
			if !ctx.conflict(x, d.Item) {
				continue
			}
			if d.Priority < n.drawn[i] || (d.Priority == n.drawn[i] && d.Item < x) {
				wins[i] = false
			}
		}
	}
	for j := range n.raiseOut {
		n.raiseOut[j].Raises = n.raiseOut[j].Raises[:0]
	}
	winner := false
	for i, pi := range n.live {
		if !wins[i] {
			continue
		}
		winner = true
		x := n.own[pi]
		delta := n.core.Raise(&n.views[pi])
		n.raises = append(n.raises, raiseRec{Step: int32(t), Item: x, Delta: delta})
		for _, j := range ctx.targets[x] {
			n.raiseOut[j].Raises = append(n.raiseOut[j].Raises, raiseEntry{Item: x, Delta: delta})
		}
	}
	if !winner {
		return nil
	}
	n.live = n.live[:0]
	out := n.out[:0]
	for j := range n.raiseOut {
		if len(n.raiseOut[j].Raises) > 0 {
			out = append(out, simnet.Message{From: int(n.id), To: n.neighbors[j], Payload: &n.raiseOut[j]})
		}
	}
	n.out = out
	return out
}

// absorbRaises replays remote raises: the locally-tracked β copies on the
// raised item's critical set gain exactly what the raiser added. The gain
// is computed from the FULL critical length (engine.BetaGain's contract)
// and applied to the subset of critical edges this node tracks — any
// critical edge also on one of this node's paths — so each tracked β
// receives the identical += sequence the raiser and the engine perform.
// Live items conflicting with the raised item leave the current election.
//
//schedvet:hot
func (n *node) absorbRaises(p *raisePayload) {
	ctx := n.ctx
	for _, r := range p.Raises {
		crit := ctx.views[r.Item].Critical
		gain := engine.BetaGain(n.core.Mode, len(crit), r.Delta)
		sc := n.critScratch[:0]
		for _, g := range crit {
			if li, ok := findIdx(n.edges, g); ok {
				sc = append(sc, li)
			}
		}
		n.critScratch = sc
		n.core.Dual.AddBeta(sc, gain)
		if len(n.live) == 0 {
			continue
		}
		kept := n.live[:0]
		for _, pi := range n.live {
			if !ctx.conflict(n.own[pi], r.Item) {
				kept = append(kept, pi)
			}
		}
		n.live = kept
	}
}

// finalCheck asserts, at the end of the schedule, the invariant the engine
// enforces stage by stage: every item is satisfied at its epoch's final
// threshold. A violation means a stage ran out of step slots — the same
// condition the engine reports as a Lemma 5.1 cap violation.
func (n *node) finalCheck() {
	if n.ctx.plan.Stages == 0 {
		return
	}
	thresh := n.ctx.plan.Thresholds[n.ctx.plan.Stages-1]
	for i := range n.own {
		if n.core.Unsatisfied(&n.views[i], thresh) {
			panic(fmt.Sprintf("dist: node %d: item %d unsatisfied at final threshold %.6f; step cap exceeded",
				n.id, n.own[i], thresh))
		}
	}
}

// Per-entry resident sizes for stateBytes (struct sizes on 64-bit).
const (
	nodeFixedBytes = 432 // node struct + dual.Assignment headers
	messageBytes   = 32  // Message: From, To, Payload interface
	entryBytes     = 16  // drawEntry / raiseEntry / raiseRec
)

// stateBytes reports the node's resident private state: the capacity bytes
// of every mutable per-node slice plus the fixed struct overhead. Shared
// arenas (own/views/edges/neighbors rows) are accounted once, in
// runContext.sharedBytes, not here — that split is the compaction headline
// Result.NodeStateBytes/SharedStateBytes report.
func (n *node) stateBytes() int64 {
	b := int64(nodeFixedBytes)
	b += n.core.Dual.StateBytes()
	b += int64(cap(n.live))*4 + int64(cap(n.drawn))*8 + int64(cap(n.wins))
	b += int64(cap(n.recvDraws)) * entryBytes
	b += int64(cap(n.critScratch)) * 4
	b += int64(cap(n.out)) * messageBytes
	b += int64(cap(n.drawOut))*sliceHeaderBytes + int64(cap(n.raiseOut))*sliceHeaderBytes
	for j := range n.drawOut {
		b += int64(cap(n.drawOut[j].Draws)) * entryBytes
	}
	for j := range n.raiseOut {
		b += int64(cap(n.raiseOut[j].Raises)) * entryBytes
	}
	b += int64(cap(n.raises)) * entryBytes
	return b
}
