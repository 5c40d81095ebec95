package simnet

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the simulator's round loop. Three ideas keep it exact and
// fast on million-node networks:
//
//  1. Batched delivery: no per-node goroutines or channel handshakes.
//     Each executed round steps the due nodes (mail in the inbox, or their
//     own reported next-active round) on a bounded worker pool and commits
//     the outboxes serially in ascending node order through the Transport.
//     Determinism needs nothing more: a recipient's inbox is appended per
//     sender in ascending sender order, which is the delivery order.
//
//  2. Sparse stepping: a node with no mail and no spontaneous action is not
//     called at all — its state is frozen, so skipping the call is
//     observationally identical to the model's idle round.
//
//  3. O(components) fast-forward: the earliest next-active round is tracked
//     per conflict component of the topology in a lazy min-heap, so finding
//     the next round worth executing costs O(log components), not a scan of
//     every node's NextActiveRound. Mail never crosses components (senders
//     and recipients are topology neighbors), so a component's schedule is
//     self-contained: the min over its members' NextActiveRound answers,
//     plus any mail addressed into it.
//
// Stats are a deterministic function of the executed schedule; the dist
// equivalence suites pin them against checked-in goldens.

// BatchConfig configures Run.
type BatchConfig struct {
	// Workers bounds the node-stepping pool; ≤0 means GOMAXPROCS. The pool
	// only partitions the due-node scan of a round — results are committed
	// serially in ascending node order — so the worker count cannot affect
	// results, only wall-clock.
	Workers int
}

// Run executes rounds until every node reports Done and no messages are in
// flight, or maxRounds elapses (an error), and returns the communication
// statistics. A network runs once.
func (nw *Network) Run(maxRounds int, cfg BatchConfig) (Stats, error) {
	if nw.started {
		return Stats{}, fmt.Errorf("simnet: network already run")
	}
	nw.started = true
	n := len(nw.nodes)
	comp, comps := nw.components()
	tr := NewMemTransport(n)
	sched := newCompSchedule(len(comps))
	// Every node is due at round 0: the model's setup round steps the whole
	// network once.
	nodeNext := make([]int, n)
	for c := range comps {
		sched.setSpontaneous(c, 0)
	}
	done := make([]bool, n)
	doneCount := 0
	pool := newStepPool(cfg.Workers)
	defer pool.close()

	var stats Stats
	var active, due []int
	var dueMail []bool // aligned with due: node was due because of mail
	var outs []roundOutput
	round := 0
	for {
		if round >= maxRounds {
			return stats, fmt.Errorf("simnet: exceeded %d rounds without termination", maxRounds)
		}
		stats.Rounds++
		active = sched.pop(round, active[:0])
		due, dueMail = due[:0], dueMail[:0]
		busy := false
		for _, c := range active {
			for _, i := range comps[c] {
				if len(tr.Inbox(i)) > 0 {
					busy = true
					due = append(due, i)
					dueMail = append(dueMail, true)
				} else if nodeNext[i] >= 0 && nodeNext[i] <= round {
					due = append(due, i)
					dueMail = append(dueMail, false)
				}
			}
		}
		if cap(outs) < len(due) {
			outs = make([]roundOutput, len(due))
		}
		outs = outs[:len(due)]
		r := round
		pool.run(len(due), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := due[k]
				outs[k] = safeStep(i, nw.nodes[i], r, tr.Inbox(i))
			}
		})
		sent := 0
		busyNodes := 0
		for k, i := range due {
			out := &outs[k]
			if out.err != nil {
				return stats, out.err
			}
			if out.done != done[i] {
				done[i] = out.done
				if out.done {
					doneCount++
				} else {
					doneCount--
				}
			}
			if out.next >= 0 && out.next <= round {
				return stats, fmt.Errorf("simnet: node reported non-future active round %d at round %d", out.next, round)
			}
			nodeNext[i] = out.next
			for _, m := range out.outbox {
				if m.From != i {
					return stats, fmt.Errorf("simnet: node %d forged sender %d", i, m.From)
				}
				if !nw.allowedTo(i, m.To) {
					return stats, fmt.Errorf("simnet: node %d sent to non-neighbor %d", i, m.To)
				}
				if m.Payload == nil {
					return stats, fmt.Errorf("simnet: node %d sent nil payload", i)
				}
				tr.Send(m)
				sent++
				size := m.Payload.Size()
				stats.TotalSize += size
				stats.MsgSizeHist[HistBucket(size)]++
				if size > stats.MaxMessageSize {
					stats.MaxMessageSize = size
				}
				sched.setMail(comp[m.To], round+1)
			}
			// A node is busy when it received or sent this round; non-due
			// nodes are frozen (no mail, no send), so counting the due
			// suffices.
			if dueMail[k] || len(out.outbox) > 0 {
				busyNodes++
			}
		}
		// Reschedule the components that just ran from their members' fresh
		// next-active rounds. Members that were not due kept nodeNext > round
		// (otherwise they would have been due), so the min is always future.
		for _, c := range active {
			next := -1
			for _, i := range comps[c] {
				if nodeNext[i] >= 0 && (next == -1 || nodeNext[i] < next) {
					next = nodeNext[i]
				}
			}
			sched.setSpontaneous(c, next)
		}
		stats.Messages += sent
		if sent > 0 {
			busy = true
		}
		if busy {
			stats.BusyRounds++
			stats.BusyNodeHist[HistBucket(busyNodes)]++
		}
		tr.Flip()
		if doneCount == n && sent == 0 {
			return stats, nil
		}
		if busy {
			round++
			continue
		}
		next, ok := sched.peek()
		if !ok {
			return stats, fmt.Errorf("simnet: deadlock at round %d: no messages in flight and no node will act", round)
		}
		if skip := next - round - 1; skip > 0 {
			stats.Rounds += skip
			stats.SkippedRounds += skip
		}
		round = next
	}
}

// roundOutput is one node's result for one executed round.
type roundOutput struct {
	outbox []Message
	done   bool
	next   int   // the node's NextActiveRound answer; -1 = never
	err    error // non-nil if the node panicked
}

// safeStep invokes one node round plus its next-active query, converting a
// panic into an error so a faulty node fails the run instead of poisoning
// the pool.
func safeStep(id int, node Node, round int, inbox []Message) (out roundOutput) {
	defer func() {
		if r := recover(); r != nil {
			out = roundOutput{err: fmt.Errorf("simnet: node %d panicked in round %d: %v", id, round, r)}
		}
	}()
	outbox := node.Round(round, inbox)
	return roundOutput{outbox: outbox, done: node.Done(), next: node.NextActiveRound(round)}
}

// components labels the connected components of the topology: comp[i] is
// node i's component, comps[c] its members in ascending order. Component ids
// are assigned in order of their smallest member.
func (nw *Network) components() (comp []int, comps [][]int) {
	n := len(nw.nodes)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	members := make([]int, 0, n) // arena: comps rows are subslices of it
	var queue []int
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := len(comps)
		start := len(members)
		comp[s] = c
		queue = append(queue[:0], s)
		members = append(members, s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range nw.nbrs[v] {
				if comp[w] < 0 {
					comp[w] = c
					queue = append(queue, w)
					members = append(members, w)
				}
			}
		}
		row := members[start:len(members):len(members)]
		sortInts(row)
		comps = append(comps, row)
	}
	return comp, comps
}

// sortInts is an insertion/shell hybrid over the small-to-medium component
// member rows; kept local so the hot build path stays allocation-free.
func sortInts(a []int) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

// compSchedule tracks, per component, the next round at which it must be
// stepped: the min of its members' spontaneous next-active rounds, plus any
// pending mail delivery. Entries live in a lazy min-heap — stale entries
// (superseded spontaneous rounds, consumed mail) are discarded on pop/peek
// by checking them against the authoritative per-component values.
type compSchedule struct {
	heap     []compEntry
	compNext []int // authoritative spontaneous round per comp (-1 none)
	mailAt   []int // pending mail delivery round per comp (-1 none)
	stamp    []int // last round the comp was returned by pop, +1 (0 = never)
}

type compEntry struct {
	round, comp int
}

func newCompSchedule(comps int) *compSchedule {
	s := &compSchedule{
		compNext: make([]int, comps),
		mailAt:   make([]int, comps),
		stamp:    make([]int, comps),
	}
	for c := range s.compNext {
		s.compNext[c] = -1
		s.mailAt[c] = -1
	}
	return s
}

// setSpontaneous records comp's earliest member-driven round (-1 = never),
// superseding any previous spontaneous entry (which turns stale in place).
func (s *compSchedule) setSpontaneous(c, round int) {
	s.compNext[c] = round
	if round >= 0 {
		s.push(compEntry{round: round, comp: c})
	}
}

// setMail records that mail addressed into comp will be delivered at round.
// Run calls it only for round+1 of the currently executing round, so
// at most one mail round per comp is ever pending.
//
//schedvet:hot
func (s *compSchedule) setMail(c, round int) {
	if s.mailAt[c] != round {
		s.mailAt[c] = round
		s.push(compEntry{round: round, comp: c})
	}
}

// pop appends to dst the components scheduled at exactly `round` (each
// once), consuming their entries, and discards stale entries below. Every
// valid entry < round was consumed when its round executed — Run never
// advances past a valid entry — so anything older is stale.
//
//schedvet:hot
func (s *compSchedule) pop(round int, dst []int) []int {
	for len(s.heap) > 0 && s.heap[0].round <= round {
		e := s.popMin()
		if e.round == s.mailAt[e.comp] {
			s.mailAt[e.comp] = -1
		} else if e.round != s.compNext[e.comp] {
			continue // stale
		}
		if s.stamp[e.comp] == round+1 {
			continue // already returned this round (mail + spontaneous)
		}
		s.stamp[e.comp] = round + 1
		dst = append(dst, e.comp)
	}
	sortInts(dst)
	return dst
}

// peek returns the earliest scheduled future round, discarding stale
// entries; ok is false when nothing is scheduled (deadlock if no mail is in
// flight either).
func (s *compSchedule) peek() (round int, ok bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if e.round != s.mailAt[e.comp] && e.round != s.compNext[e.comp] {
			s.popMin()
			continue
		}
		return e.round, true
	}
	return 0, false
}

//schedvet:hot
func (s *compSchedule) push(e compEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].round <= s.heap[i].round {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

//schedvet:hot
func (s *compSchedule) popMin() compEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && s.heap[l].round < s.heap[min].round {
			min = l
		}
		if r < len(s.heap) && s.heap[r].round < s.heap[min].round {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}

// stepPool is a persistent bounded worker pool for the due-node scan: the
// workers survive across rounds, so a million-round run spawns a handful of
// goroutines total instead of one per node per round.
type stepPool struct {
	workers int
	tasks   chan stepTask
}

type stepTask struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// stepGrain is the minimum due-node count worth fanning out; below it a
// round runs inline on the coordinator goroutine.
const stepGrain = 32

func newStepPool(workers int) *stepPool {
	max := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > max {
		workers = max
	}
	p := &stepPool{workers: workers}
	if workers <= 1 {
		return p
	}
	p.tasks = make(chan stepTask, workers)
	for w := 0; w < workers-1; w++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return p
}

// run partitions [0,n) into ≤workers chunks, executes them on the pool (the
// coordinator takes the first chunk itself) and waits for all. fn must be
// safe for concurrent disjoint ranges.
func (p *stepPool) run(n int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if p.workers <= 1 || n < stepGrain {
		fn(0, n)
		return
	}
	chunks := p.workers
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := size; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.tasks <- stepTask{lo: lo, hi: hi, fn: fn, wg: &wg}
	}
	fn(0, size)
	wg.Wait()
}

func (p *stepPool) close() {
	if p.tasks != nil {
		close(p.tasks)
	}
}
