// Package serve turns the treesched engine into an online scheduling
// service: long-lived per-instance actors that absorb demand churn from any
// number of concurrent submitters, re-solve incrementally once per round,
// and publish immutable snapshots that readers fetch lock-free.
//
// # The session actor
//
// An Actor owns one treesched.Session (one fixed network set with an
// evolving demand set). Submitters call Submit with a Churn; the actor
// coalesces every churn submitted since the last round into one batch,
// applies it with a single Session.Update, runs one Session.Solve, and
// publishes a Snapshot — so N concurrent submitters cost one delta+solve
// per round, not N. Submit blocks until the round that carried its churn
// completes and returns the demand ids assigned to its arrivals plus the
// epoch at which they became visible: any snapshot at that epoch or later
// reflects the churn.
//
// If the coalesced batch is rejected (Session.Update is atomic: one invalid
// arrival or a duplicate removal rejects the whole batch with no partial
// churn), the actor falls back to applying each submission individually, so
// only the offending submissions fail and the rest of the round proceeds.
//
// # Snapshots
//
// A Snapshot is immutable once published and handed to readers through an
// atomic pointer swap: Actor.Snapshot never takes a lock and never blocks a
// writer, and a reader's view is always a complete, epoch-consistent round
// — the Result, the accepted (scheduled) demand ids, the live demand
// count, and the engine item set the Result was computed from, captured
// atomically by Session.SolveWithItems. The item set is kept as an
// immutable view that shares its items with later rounds, so publication
// copies no item; Items() materializes it on first use. Publication sorts
// the assigned demand ids, which are the accepted ones, and makes no pass
// over the live set: the rejected (live but unscheduled) ids are the
// distinct demands of Items() that Accepted does not name, and Rejected()
// derives them on its first call. The item set makes the published
// contract checkable: every snapshot's Result is bitwise reproducible by a
// from-scratch solve over Items(), and its accepted and rejected ids match
// a direct derivation from Items() and the assignments (both asserted by
// this package's tests).
//
// # The registry
//
// A Registry manages a fleet of named actors sharing one bounded worker
// pool: an actor with pending churn is enqueued once, a worker runs exactly
// one round, and the actor re-enqueues itself while churn keeps arriving —
// round-robin across instances, so a hot instance cannot starve the fleet
// and total solve concurrency is capped by the pool size regardless of how
// many instances exist.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/obs"
)

// ErrClosed is returned by Submit after the actor was closed (the instance
// was deleted or its registry shut down).
var ErrClosed = errors.New("serve: instance closed")

// ErrSolveFailed distinguishes the one error Submit can return for churn
// that WAS applied: the round's solve failed after a successful update.
// Callers must not retry such a submission — its removals are gone and its
// arrivals are live (under the ids Submit returned alongside the error);
// the updated state is published by the next successful round.
var ErrSolveFailed = errors.New("serve: round solve failed (churn was applied)")

// Snapshot is one published solve round. It is immutable: readers may hold
// it for any length of time while the actor publishes newer epochs.
type Snapshot struct {
	// Epoch numbers the published rounds consecutively from 0 (the initial
	// solve at actor creation). Churn submitted with a Submit that returned
	// epoch e is reflected in every snapshot with Epoch >= e.
	Epoch uint64
	// Result is the solve outcome over the live demand set at this epoch.
	// Assignment demand ids are the session's (initial instance ids and
	// Submit-assigned arrival ids).
	Result *treesched.Result
	// Live counts the live demands; Accepted lists the demand ids the
	// solve scheduled, ascending. len(Accepted) + len(Rejected()) == Live.
	Accepted []int
	Live     int
	// Batch is the number of submissions coalesced into this round (0 for
	// the initial snapshot); Latency is the round's wall time (update +
	// solve + publish); At is the publish time.
	Batch   int
	Latency time.Duration
	At      time.Time

	view         engine.ItemsView
	itemsOnce    sync.Once
	items        []engine.Item
	rejectedOnce sync.Once
	rejected     []int
}

// Items returns the engine item set Result was computed from, captured in
// the same critical section as the solve. Callers must not mutate it. It
// exists so snapshot consumers (tests, verifiers) can re-derive the Result
// from scratch and check bitwise equality. The first call materializes the
// snapshot's item view into a slice, in O(items), and every call returns
// that slice; it is safe from any goroutine, while the actor goes on
// publishing.
func (s *Snapshot) Items() []engine.Item {
	s.itemsOnce.Do(func() { s.items = s.view.Items() })
	return s.items
}

// Rejected returns the live demand ids the solve left unscheduled,
// ascending: the distinct demands of Items() that Accepted does not name.
// Callers must not mutate it. The first call derives them, in
// O(items·log items), and every call returns that slice; like Items, it
// is safe from any goroutine.
func (s *Snapshot) Rejected() []int {
	s.rejectedOnce.Do(func() {
		items := s.Items()
		live := make([]int, len(items))
		for i := range items {
			live[i] = items[i].Demand
		}
		slices.Sort(live)
		live = slices.Compact(live)
		// Accepted ascends within live, so one merge pass drops it.
		rejected, k := live[:0], 0
		for _, d := range live {
			if k < len(s.Accepted) && s.Accepted[k] == d {
				k++
			} else {
				rejected = append(rejected, d)
			}
		}
		s.rejected = rejected
	})
	return s.rejected
}

// reply is what one submission's waiter receives.
type reply struct {
	ids   []int
	epoch uint64
	err   error
}

type submission struct {
	churn treesched.Churn
	done  chan reply
}

// Actor is the admission loop of one instance. Create standalone actors
// with NewActor (each round runs on its own goroutine) or through a
// Registry (rounds run on the shared pool). All methods are safe for
// concurrent use.
type Actor struct {
	name string
	sess *treesched.Session
	// sched hands the actor to whatever runs rounds; it is called exactly
	// once per idle->scheduled transition and again on re-enqueue, so at
	// most one step() is outstanding at any time.
	sched func(*Actor)
	// onPublish, when set (before any Submit), observes every published
	// snapshot from the round goroutine.
	onPublish func(*Snapshot)

	mu      sync.Mutex
	pending []*submission
	running bool
	closed  bool
	// queuedAt is when the actor entered the run queue (zero while idle or
	// already stepping); the gap to the next step() is the queue-wait
	// distribution — the registry pool's backpressure signal.
	queuedAt time.Time

	snap atomic.Pointer[Snapshot]

	// hists are the actor's lock-free distributions (see ActorHists).
	hists actorHists

	// Round accounting, written only by the (single) round runner.
	statsMu      sync.Mutex
	rounds       uint64
	submissions  uint64
	failed       uint64
	totalLatency time.Duration
	maxLatency   time.Duration
	epoch        uint64
}

// actorHists bundles the per-actor histograms. Observation is lock-free
// (obs.Histogram), so recording from the round runner never contends with
// scrapes.
type actorHists struct {
	latency *obs.Histogram // round wall seconds (update+solve+publish)
	solve   *obs.Histogram // Session solve seconds within a round
	wait    *obs.Histogram // enqueue -> step queue wait, seconds
	batch   *obs.Histogram // submissions coalesced per round
}

func newActorHists() actorHists {
	return actorHists{
		latency: obs.NewLatencyHistogram(),
		solve:   obs.NewLatencyHistogram(),
		wait:    obs.NewLatencyHistogram(),
		batch:   obs.NewSizeHistogram(),
	}
}

// ActorHists is a point-in-time snapshot of an actor's distributions, the
// histogram complement of ActorStats: round latency, solve time and queue
// wait in seconds, coalesced batch size in submissions. Buckets are
// obs.Histogram's log₂ scheme.
type ActorHists struct {
	RoundLatency obs.HistSnapshot `json:"round_latency_seconds"`
	SolveSeconds obs.HistSnapshot `json:"solve_seconds"`
	QueueWait    obs.HistSnapshot `json:"queue_wait_seconds"`
	BatchSize    obs.HistSnapshot `json:"batch_size"`
}

// Hists snapshots the actor's histograms.
func (a *Actor) Hists() ActorHists {
	return ActorHists{
		RoundLatency: a.hists.latency.Snapshot(),
		SolveSeconds: a.hists.solve.Snapshot(),
		QueueWait:    a.hists.wait.Snapshot(),
		BatchSize:    a.hists.batch.Snapshot(),
	}
}

// ActorStats is a point-in-time view of an actor's round accounting plus
// its session's incremental-state counters.
type ActorStats struct {
	Name string
	// Epoch is the latest published epoch; Rounds counts churn rounds run
	// (the initial solve is epoch 0 but not a round). Submissions counts
	// churns coalesced across all rounds and Failed the ones rejected, so
	// Submissions/Rounds is the mean coalesced batch size.
	Epoch       uint64
	Rounds      uint64
	Submissions uint64
	Failed      uint64
	// TotalLatency sums every round's wall time (update+solve+publish);
	// MaxLatency is the worst round.
	TotalLatency time.Duration
	MaxLatency   time.Duration
	Session      treesched.SessionStats
}

// NewActor starts a standalone actor over the session: each round runs on a
// fresh goroutine as churn arrives. The initial demand set is solved and
// published as epoch 0 before NewActor returns, so Snapshot never returns
// nil for a live actor.
func NewActor(name string, sess *treesched.Session) (*Actor, error) {
	a := &Actor{name: name, sess: sess, hists: newActorHists()}
	a.sched = func(a *Actor) { go a.step() }
	if err := a.publishInitial(); err != nil {
		return nil, err
	}
	return a, nil
}

// newPooledActor is NewActor scheduling rounds onto a registry pool.
func newPooledActor(name string, sess *treesched.Session, sched func(*Actor)) (*Actor, error) {
	a := &Actor{name: name, sess: sess, sched: sched, hists: newActorHists()}
	if err := a.publishInitial(); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Actor) publishInitial() error {
	res, items, live, err := a.sess.SolveWithItems()
	if err != nil {
		return fmt.Errorf("serve: initial solve of %q: %w", a.name, err)
	}
	a.snap.Store(buildSnapshot(0, res, items, live, 0, 0))
	return nil
}

// Name returns the actor's instance name.
func (a *Actor) Name() string { return a.name }

// Snapshot returns the latest published snapshot. It never blocks and
// never observes a partially published round: publication is one atomic
// pointer swap.
func (a *Actor) Snapshot() *Snapshot { return a.snap.Load() }

// SetPublishHook installs an observer called with every snapshot the actor
// publishes, from the round goroutine, after the swap. It must be set
// before the first Submit and exists for tests and metrics scrapers that
// need every epoch, not just the latest.
func (a *Actor) SetPublishHook(fn func(*Snapshot)) { a.onPublish = fn }

// Stats reports the actor's round accounting and session counters.
func (a *Actor) Stats() ActorStats {
	a.statsMu.Lock()
	st := ActorStats{
		Name:         a.name,
		Epoch:        a.epoch,
		Rounds:       a.rounds,
		Submissions:  a.submissions,
		Failed:       a.failed,
		TotalLatency: a.totalLatency,
		MaxLatency:   a.maxLatency,
	}
	a.statsMu.Unlock()
	st.Session = a.sess.Stats()
	return st
}

// Submit enqueues one churn and blocks until the round that carried it
// completes. It returns the demand ids assigned to c.Add (aligned with it)
// and the epoch at which the churn became visible: every snapshot at that
// epoch or later reflects it. An empty Churn is a valid barrier: it forces
// a round and returns its epoch.
//
// Errors are per-submission: an invalid churn (unknown removal id, invalid
// arrival, duplicate removal across the batch) rejects only this
// submission; the rest of the round proceeds. An error means the churn was
// NOT applied, with one marked exception: an ErrSolveFailed error reports
// churn that was applied (ids are still returned) whose round could not
// publish — do not retry it.
func (a *Actor) Submit(c treesched.Churn) ([]int, uint64, error) {
	sub := &submission{churn: c, done: make(chan reply, 1)}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, 0, ErrClosed
	}
	a.pending = append(a.pending, sub)
	kick := !a.running
	if kick {
		a.running = true
		a.queuedAt = time.Now()
	}
	a.mu.Unlock()
	if kick {
		a.sched(a)
	}
	r := <-sub.done
	return r.ids, r.epoch, r.err
}

// close rejects all pending and future submissions. A round already in
// flight completes normally (its waiters get real replies).
func (a *Actor) close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	pend := a.pending
	a.pending = nil
	a.mu.Unlock()
	for _, s := range pend {
		s.done <- reply{err: ErrClosed}
	}
}

// step runs one coalesced round and reschedules the actor if churn arrived
// meanwhile. The running flag guarantees at most one step is outstanding
// per actor, so rounds never overlap — the Session sees one writer.
func (a *Actor) step() {
	a.mu.Lock()
	if !a.queuedAt.IsZero() {
		a.hists.wait.Observe(time.Since(a.queuedAt).Seconds())
		a.queuedAt = time.Time{}
	}
	batch := a.pending
	a.pending = nil
	a.mu.Unlock()
	if len(batch) > 0 {
		a.round(batch)
	}
	a.mu.Lock()
	if len(a.pending) > 0 && !a.closed {
		a.queuedAt = time.Now()
		a.mu.Unlock()
		a.sched(a) // back of the queue: fair across a registry's actors
		return
	}
	a.running = false
	a.mu.Unlock()
}

// round applies one coalesced batch, solves, publishes, and replies.
func (a *Actor) round(batch []*submission) {
	start := time.Now()
	var c treesched.Churn
	for _, s := range batch {
		c.Remove = append(c.Remove, s.churn.Remove...)
		c.Add = append(c.Add, s.churn.Add...)
	}
	replies := make([]reply, len(batch))
	failed := uint64(0)
	if ids, err := a.sess.Update(c); err == nil {
		off := 0
		for i, s := range batch {
			n := len(s.churn.Add)
			replies[i].ids = ids[off : off+n : off+n]
			off += n
		}
	} else {
		// The coalesced batch was rejected as a whole (Update is atomic, so
		// no partial churn was applied). Apply each submission separately:
		// only the invalid ones reject, and their errors name their own
		// arrivals, not positions in a batch the submitter never built.
		for i, s := range batch {
			ids, ierr := a.sess.Update(s.churn)
			replies[i] = reply{ids: ids, err: ierr}
			if ierr != nil {
				failed++
			}
		}
	}

	solveStart := time.Now()
	res, items, live, err := a.sess.SolveWithItems()
	a.hists.solve.Observe(time.Since(solveStart).Seconds())
	if err != nil {
		// The demand set is updated but unsolved; keep the previous
		// snapshot and fail this round's waiters. Submissions whose churn
		// was applied get ErrSolveFailed (with their assigned ids), so
		// callers can tell applied-but-unpublished from rejected and do
		// not retry an applied batch.
		for i, s := range batch {
			if replies[i].err == nil {
				replies[i].err = fmt.Errorf("%w: %v", ErrSolveFailed, err)
			}
			s.done <- replies[i]
		}
		return
	}

	a.statsMu.Lock()
	a.epoch++
	epoch := a.epoch
	a.rounds++
	a.submissions += uint64(len(batch))
	a.failed += failed
	lat := time.Since(start)
	a.totalLatency += lat
	if lat > a.maxLatency {
		a.maxLatency = lat
	}
	a.statsMu.Unlock()
	a.hists.latency.Observe(lat.Seconds())
	a.hists.batch.Observe(float64(len(batch)))

	snap := buildSnapshot(epoch, res, items, live, len(batch), lat)
	a.snap.Store(snap)
	if a.onPublish != nil {
		a.onPublish(snap)
	}
	for i, s := range batch {
		replies[i].epoch = epoch
		s.done <- replies[i]
	}
}

// buildSnapshot publishes one solve: the accepted (scheduled) demand ids
// are the assigned demands, sorted; live is the session's live demand
// count. The rejected ids are left to Snapshot.Rejected.
func buildSnapshot(epoch uint64, res *treesched.Result, items engine.ItemsView, live, batch int, lat time.Duration) *Snapshot {
	accepted := make([]int, len(res.Assignments))
	for i, asg := range res.Assignments {
		accepted[i] = asg.Demand
	}
	slices.Sort(accepted)
	return &Snapshot{
		Epoch:    epoch,
		Result:   res,
		Accepted: slices.Compact(accepted),
		Live:     live,
		Batch:    batch,
		Latency:  lat,
		At:       time.Now(),
		view:     items,
	}
}
