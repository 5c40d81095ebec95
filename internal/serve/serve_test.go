package serve

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/workload"
)

// testInstance converts a generated workload into the public builder.
func testInstance(t testing.TB, cfg workload.TreeConfig, seed int64) *treesched.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst := treesched.NewInstance(cfg.Vertices)
	for _, tr := range in.Trees {
		edges := make([][2]int, 0, tr.N()-1)
		for _, e := range tr.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		if _, err := inst.AddTree(edges); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range in.Demands {
		inst.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...))
	}
	return inst
}

func testSession(t testing.TB, opts treesched.Options, cfg workload.TreeConfig, seed int64) *treesched.Session {
	t.Helper()
	sess, err := treesched.NewSolver(opts).Session(testInstance(t, cfg, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

var smallCfg = workload.TreeConfig{Vertices: 32, Trees: 2, Demands: 24, ProfitRatio: 8}

// TestActorCoalescesBatch is the deterministic coalescing proof: N
// goroutines submit churn while the actor's scheduler is held, then one
// manual step runs — all N submissions must land in ONE round (fewer solve
// rounds than submissions), share one epoch, and the published snapshot
// must reflect every arrival.
func TestActorCoalescesBatch(t *testing.T) {
	sess := testSession(t, treesched.Options{Epsilon: 0.1, Seed: 3}, smallCfg, 7)
	a, err := NewActor("coalesce", sess)
	if err != nil {
		t.Fatal(err)
	}
	a.sched = func(*Actor) {} // hold rounds until the manual step below

	const n = 8
	var wg sync.WaitGroup
	type res struct {
		ids   []int
		epoch uint64
		err   error
	}
	results := make([]res, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ids, epoch, err := a.Submit(treesched.Churn{Add: []treesched.NewDemand{
				{U: k, V: k + 1, Profit: float64(k + 1)},
			}})
			results[k] = res{ids, epoch, err}
		}(k)
	}
	// Wait until all n submissions are enqueued, then run the one round.
	for {
		a.mu.Lock()
		queued := len(a.pending)
		a.mu.Unlock()
		if queued == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.step()
	wg.Wait()

	st := a.Stats()
	if st.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1 (coalesced)", st.Rounds)
	}
	if st.Submissions != n {
		t.Fatalf("Submissions = %d, want %d", st.Submissions, n)
	}
	if st.Rounds >= st.Submissions {
		t.Fatalf("no coalescing: %d rounds for %d submissions", st.Rounds, st.Submissions)
	}
	seen := make(map[int]bool)
	for k, r := range results {
		if r.err != nil {
			t.Fatalf("submitter %d: %v", k, r.err)
		}
		if r.epoch != 1 {
			t.Fatalf("submitter %d: epoch %d, want 1", k, r.epoch)
		}
		if len(r.ids) != 1 || seen[r.ids[0]] {
			t.Fatalf("submitter %d: ids %v (duplicate or wrong arity)", k, r.ids)
		}
		seen[r.ids[0]] = true
	}
	snap := a.Snapshot()
	if snap.Epoch != 1 || snap.Batch != n {
		t.Fatalf("snapshot epoch=%d batch=%d, want 1, %d", snap.Epoch, snap.Batch, n)
	}
	if snap.Live != smallCfg.Demands+n {
		t.Fatalf("snapshot live=%d, want %d", snap.Live, smallCfg.Demands+n)
	}
	if len(snap.Accepted)+len(snap.Rejected()) != snap.Live {
		t.Fatalf("accepted %d + rejected %d != live %d", len(snap.Accepted), len(snap.Rejected()), snap.Live)
	}
	if got := sess.Stats().Updates; got != 1 {
		t.Fatalf("session saw %d updates, want 1 (one coalesced delta)", got)
	}
}

// TestSnapshotsScratchReproducible hammers a standalone actor from
// concurrent submitters and then re-derives EVERY published snapshot's
// Result from scratch over the item set it claims: bitwise-equal profit and
// dual bound, identical assignments. This is the epoch-consistency contract
// the serve layer publishes.
func TestSnapshotsScratchReproducible(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 5, Parallelism: 2}
	sess := testSession(t, opts, smallCfg, 11)
	a, err := NewActor("scratch", sess)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []*Snapshot
	a.SetPublishHook(func(s *Snapshot) {
		mu.Lock()
		snaps = append(snaps, s)
		mu.Unlock()
	})
	snaps = append(snaps, a.Snapshot()) // epoch 0

	const submitters, roundsEach = 4, 5
	var wg sync.WaitGroup
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + k)))
			mine := []int{k} // each submitter churns only demands it owns
			for r := 0; r < roundsEach; r++ {
				c := treesched.Churn{Remove: []int{mine[0]}}
				u, v := rng.Intn(32), rng.Intn(32)
				if u == v {
					v = (v + 1) % 32
				}
				c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*7})
				ids, _, err := a.Submit(c)
				if err != nil {
					t.Errorf("submitter %d round %d: %v", k, r, err)
					return
				}
				mine = ids
			}
		}(k)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots published", len(snaps))
	}
	for _, snap := range snaps {
		checkSnapshot(t, snap, opts)
	}
}

// checkSnapshot re-derives a snapshot's Result from scratch over the item
// set it claims — bitwise-equal profit and dual bound, identical
// assignments — and its admission view from the items and assignments.
func checkSnapshot(t *testing.T, snap *Snapshot, opts treesched.Options) {
	t.Helper()
	items := append([]engine.Item(nil), snap.Items()...)
	eres, err := engine.Prepare(items).Solve(engine.Config{
		Mode: engine.Unit, Epsilon: opts.Epsilon, Seed: opts.Seed,
	}, 1)
	if err != nil {
		t.Fatalf("epoch %d: scratch run: %v", snap.Epoch, err)
	}
	if snap.Result.Profit != eres.Profit || snap.Result.DualBound != eres.Bound {
		t.Fatalf("epoch %d: published (%v,%v), scratch (%v,%v)",
			snap.Epoch, snap.Result.Profit, snap.Result.DualBound, eres.Profit, eres.Bound)
	}
	if len(snap.Result.Assignments) != len(eres.Selected) {
		t.Fatalf("epoch %d: %d assignments, scratch %d", snap.Epoch, len(snap.Result.Assignments), len(eres.Selected))
	}
	for i, id := range eres.Selected {
		asg := snap.Result.Assignments[i]
		if asg.Demand != items[id].Demand || asg.Network != items[id].Resource {
			t.Fatalf("epoch %d: assignment %d diverged", snap.Epoch, i)
		}
	}
	accepted, rejected, live := admissionOracle(snap.Result, snap.Items())
	if !slices.Equal(snap.Accepted, accepted) || !slices.Equal(snap.Rejected(), rejected) || snap.Live != live {
		t.Fatalf("epoch %d: published accepted %v rejected %v live %d, oracle %v %v %d",
			snap.Epoch, snap.Accepted, snap.Rejected(), snap.Live, accepted, rejected, live)
	}
}

// TestSnapshotItemsConcurrentReaders materializes published snapshots'
// item sets and rejected ids from reader goroutines while the actor goes
// on applying churn (raced at GOMAXPROCS=4 in CI): the first Items or
// Rejected call of a snapshot reads its item view while the next rounds'
// Applies write the log it shares. The rounds outgrow the log several
// times, so old views outlive their base. Afterwards every snapshot must
// still reproduce from its items.
func TestSnapshotItemsConcurrentReaders(t *testing.T) {
	opts := treesched.Options{Epsilon: 0.1, Seed: 8}
	sess := testSession(t, opts, smallCfg, 17)
	a, err := NewActor("readers", sess)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	snaps := []*Snapshot{a.Snapshot()}
	a.SetPublishHook(func(s *Snapshot) {
		mu.Lock()
		snaps = append(snaps, s)
		mu.Unlock()
	})

	const readers, rounds = 3, 120
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := 0; ; {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				published := snaps[seen:]
				mu.Unlock()
				for _, s := range published {
					if items := s.Items(); len(items) == 0 {
						t.Errorf("epoch %d: no items", s.Epoch)
					}
					if n := len(s.Accepted) + len(s.Rejected()); n != s.Live {
						t.Errorf("epoch %d: %d accepted and rejected, %d live", s.Epoch, n, s.Live)
					}
				}
				seen += len(published)
			}
		}()
	}
	rng := rand.New(rand.NewSource(18))
	live := make([]int, smallCfg.Demands)
	for i := range live {
		live[i] = i
	}
	for r := 0; r < rounds; r++ {
		k := rng.Intn(len(live))
		u, v := rng.Intn(smallCfg.Vertices), rng.Intn(smallCfg.Vertices)
		if u == v {
			v = (v + 1) % smallCfg.Vertices
		}
		ids, _, err := a.Submit(treesched.Churn{
			Remove: []int{live[k]},
			Add:    []treesched.NewDemand{{U: u, V: v, Profit: 1 + 7*rng.Float64()}},
		})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		live[k] = ids[0]
	}
	close(done)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) != rounds+1 {
		t.Fatalf("%d snapshots published, want %d", len(snaps), rounds+1)
	}
	for _, snap := range snaps {
		checkSnapshot(t, snap, opts)
	}
}

// admissionOracle derives a snapshot's admission view the direct way: the
// distinct assigned demands, and the distinct demands of the item set that
// no assignment names, each sorted, plus the live count.
func admissionOracle(res *treesched.Result, items []engine.Item) (accepted, rejected []int, live int) {
	in := make(map[int]bool, len(res.Assignments))
	for _, asg := range res.Assignments {
		if !in[asg.Demand] {
			in[asg.Demand] = true
			accepted = append(accepted, asg.Demand)
		}
	}
	sort.Ints(accepted)
	seen := make(map[int]bool, len(items))
	for i := range items {
		d := items[i].Demand
		if !seen[d] {
			seen[d] = true
			if !in[d] {
				rejected = append(rejected, d)
			}
		}
	}
	sort.Ints(rejected)
	return accepted, rejected, len(seen)
}

// TestRoundSurvivesInvalidSubmission holds the scheduler, queues one valid
// and one invalid submission, and checks the fallback: the coalesced batch
// rejects, the per-submission retry accepts the valid churn, and only the
// invalid submitter sees an error.
func TestRoundSurvivesInvalidSubmission(t *testing.T) {
	sess := testSession(t, treesched.Options{Epsilon: 0.1, Seed: 2}, smallCfg, 9)
	a, err := NewActor("fallback", sess)
	if err != nil {
		t.Fatal(err)
	}
	a.sched = func(*Actor) {}

	var wg sync.WaitGroup
	var goodIDs []int
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodIDs, _, goodErr = a.Submit(treesched.Churn{Add: []treesched.NewDemand{{U: 0, V: 5, Profit: 2}}})
	}()
	go func() {
		defer wg.Done()
		_, _, badErr = a.Submit(treesched.Churn{Remove: []int{999}}) // unknown demand
	}()
	for {
		a.mu.Lock()
		queued := len(a.pending)
		a.mu.Unlock()
		if queued == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.step()
	wg.Wait()

	if goodErr != nil {
		t.Fatalf("valid submission failed: %v", goodErr)
	}
	if len(goodIDs) != 1 {
		t.Fatalf("valid submission got ids %v", goodIDs)
	}
	if badErr == nil {
		t.Fatal("invalid submission accepted")
	}
	st := a.Stats()
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if snap := a.Snapshot(); snap.Live != smallCfg.Demands+1 {
		t.Fatalf("live = %d, want %d (valid churn applied)", snap.Live, smallCfg.Demands+1)
	}
}

// TestSubmitBarrier checks the empty-churn barrier: it forces a round and
// returns an epoch at which nothing changed but the snapshot is fresh.
func TestSubmitBarrier(t *testing.T) {
	sess := testSession(t, treesched.Options{Epsilon: 0.1, Seed: 4}, smallCfg, 13)
	a, err := NewActor("barrier", sess)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Snapshot()
	ids, epoch, err := a.Submit(treesched.Churn{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("barrier returned ids %v", ids)
	}
	if epoch != before.Epoch+1 {
		t.Fatalf("barrier epoch %d, want %d", epoch, before.Epoch+1)
	}
	after := a.Snapshot()
	if after.Epoch < epoch {
		t.Fatalf("snapshot epoch %d behind barrier epoch %d", after.Epoch, epoch)
	}
	if after.Result.Profit != before.Result.Profit {
		t.Fatalf("barrier changed profit: %v -> %v", before.Result.Profit, after.Result.Profit)
	}
}

// TestRegistryFleet drives a fleet of instances through the shared pool:
// create/list/get/delete semantics plus concurrent churn across instances.
func TestRegistryFleet(t *testing.T) {
	r := NewRegistry(2)
	defer r.Close()

	opts := treesched.Options{Epsilon: 0.1, Seed: 1}
	names := []string{"alpha", "beta", "gamma"}
	for i, name := range names {
		if _, err := r.Create(name, testInstance(t, smallCfg, int64(20+i)), opts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Create("alpha", testInstance(t, smallCfg, 20), opts); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if got := r.List(); len(got) != 3 || got[0] != "alpha" || got[2] != "gamma" {
		t.Fatalf("List = %v", got)
	}
	auto, err := r.Create("", testInstance(t, smallCfg, 33), opts)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Name() == "" {
		t.Fatal("empty auto-assigned name")
	}

	var wg sync.WaitGroup
	for k, name := range names {
		a, ok := r.Get(name)
		if !ok {
			t.Fatalf("Get(%q) missed", name)
		}
		wg.Add(1)
		go func(k int, a *Actor) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 4; i++ {
				u, v := rng.Intn(32), rng.Intn(32)
				if u == v {
					v = (v + 1) % 32
				}
				if _, _, err := a.Submit(treesched.Churn{Add: []treesched.NewDemand{{U: u, V: v, Profit: 1}}}); err != nil {
					t.Errorf("%s: %v", a.Name(), err)
					return
				}
			}
		}(k, a)
	}
	wg.Wait()
	for _, name := range names {
		a, _ := r.Get(name)
		if snap := a.Snapshot(); snap.Live != smallCfg.Demands+4 {
			t.Fatalf("%s: live %d, want %d", name, snap.Live, smallCfg.Demands+4)
		}
	}
	stats := r.Stats()
	if len(stats) != 4 {
		t.Fatalf("Stats returned %d actors, want 4", len(stats))
	}

	alpha, _ := r.Get("alpha")
	if err := r.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("alpha"); ok {
		t.Fatal("deleted instance still resolvable")
	}
	if _, _, err := alpha.Submit(treesched.Churn{}); err != ErrClosed {
		t.Fatalf("Submit after delete: %v, want ErrClosed", err)
	}
	if err := r.Delete("alpha"); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestRegistryClose checks shutdown: pending and post-close submissions
// fail with ErrClosed and Close is idempotent.
func TestRegistryClose(t *testing.T) {
	r := NewRegistry(1)
	a, err := r.Create("x", testInstance(t, smallCfg, 41), treesched.Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if _, _, err := a.Submit(treesched.Churn{}); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := r.Create("y", testInstance(t, smallCfg, 42), treesched.Options{}); err != ErrClosed {
		t.Fatalf("Create after Close: %v, want ErrClosed", err)
	}
}

// TestWriteMetrics smoke-checks the Prometheus exposition.
func TestWriteMetrics(t *testing.T) {
	r := NewRegistry(1)
	defer r.Close()
	a, err := r.Create("m1", testInstance(t, smallCfg, 51), treesched.Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Submit(treesched.Churn{Add: []treesched.NewDemand{{U: 0, V: 3, Profit: 2}}}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	r.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"schedserve_instances 1",
		`schedserve_rounds_total{instance="m1"} 1`,
		`schedserve_submissions_total{instance="m1"} 1`,
		`schedserve_live_demands{instance="m1"} 25`,
		`schedserve_epoch{instance="m1"} 1`,
		"schedserve_round_latency_seconds_sum",
		"schedserve_profit",
		`schedserve_session_warm_solves_total{instance="m1"}`,
		`schedserve_session_cold_solves_total{instance="m1"}`,
		`schedserve_session_warm_hit_ratio{instance="m1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}
