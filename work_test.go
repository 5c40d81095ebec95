package treesched_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	treesched "treesched"
	"treesched/internal/engine"
	"treesched/internal/workload"
)

// workGoldenPath pins the exact work of each TestWorkGolden scenario, one
// line per scenario: its name, a tab, and its counts. Regenerate with
// go test . -run WorkGolden -update, and say in the change log why the
// work moved.
const workGoldenPath = "testdata/work.golden"

var update = flag.Bool("update", false, "rewrite "+workGoldenPath+" with the counts of this run")

// workTally is a clock-free Recorder that keeps only the counters.
type workTally struct {
	mu     sync.Mutex
	counts [engine.NumCounters]int64
}

func (*workTally) StartSpan(engine.Phase) int64 { return 0 }
func (*workTally) EndSpan(engine.Phase, int64)  {}
func (r *workTally) Count(c engine.Counter, n int64) {
	r.mu.Lock()
	r.counts[c] += n
	r.mu.Unlock()
}

// take renders every counter since the last take, in declaration order,
// then the name=value pairs of fields, and resets the counters.
func (r *workTally) take(fields ...any) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for c, n := range r.counts {
		fmt.Fprintf(&b, "%v=%d ", engine.Counter(c), n)
	}
	for i := 0; i < len(fields); i += 2 {
		fmt.Fprintf(&b, "%v=%v ", fields[i], fields[i+1])
	}
	r.counts = [engine.NumCounters]int64{}
	return strings.TrimSuffix(b.String(), " ")
}

// Scenario shapes, after perfbench's workloads: solve-contended's
// (AccessMin 1 to AccessMax 3 over 3 networks, so most demands conflict),
// serve-fleet's (16 networks, each demand pinned to one) and dist-fleet's.
var (
	workContended = workload.TreeConfig{Vertices: 256, Trees: 3, Demands: 384, ProfitRatio: 16, AccessMin: 1, AccessMax: 3}
	workFleet     = workload.TreeConfig{Vertices: 256, Trees: 16, Demands: 768, ProfitRatio: 16, AccessMin: 1, AccessMax: 1}
	workDistFleet = workload.TreeConfig{Vertices: 64, Trees: 32, Demands: 2048, ProfitRatio: 16, AccessMin: 1, AccessMax: 1}
)

// TestWorkGolden pins the work counters (engine.Counter) and the schedule
// counts of five scenarios, at fixed seeds and Parallelism 1, against
// workGoldenPath:
//
//   - cold-contended: a cold engine solve at solve-contended's shape. A
//     cold solve runs the serial engine at every worker count, so its
//     line must be the same at 1, 2, 4 and 8 workers;
//   - cold-fleet: a cold engine solve at serve-fleet's shape;
//   - warm-fleet: one warm Session round of fleetChurn (serve-fleet's
//     shape), after the Session's first solve;
//   - warm-contended: one warm Session round at solve-contended's shape,
//     8 departures and 8 arrivals, after the first solve;
//   - simulate-dist-fleet: a Simulate solve at dist-fleet's shape, whose
//     line holds the engine solve that runs first and the simulated run.
//
// The engine lines add the Result's Steps, MISIters and Raised, and the
// simulated line the Result's Rounds and Messages. A serve round does a
// Session round's engine work, so it has no line.
func TestWorkGolden(t *testing.T) {
	var lines []string
	add := func(name, counts string) { lines = append(lines, name+"\t"+counts) }
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 1}
	cold := func(shape workload.TreeConfig, workers int) string {
		in, err := workload.RandomTreeInstance(shape, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			t.Fatal(err)
		}
		tally := &workTally{}
		res, err := engine.PrepareRecorded(items, tally, nil).Solve(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		return tally.take("Steps", res.Steps, "MISIters", res.MISIters, "Raised", res.Raised)
	}
	contended := cold(workContended, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := cold(workContended, workers); got != contended {
			t.Fatalf("a cold contended solve at %d workers did other work than at 1:\n got %s\nwant %s", workers, got, contended)
		}
	}
	add("cold-contended", contended)
	add("cold-fleet", cold(workFleet, 1))

	// warmRound solves sess once, then counts one round of c: Update, then
	// SolveWithItems as a serve round calls it.
	warmRound := func(sess *treesched.Session, tally *workTally, c treesched.Churn) string {
		if _, err := sess.Solve(); err != nil {
			t.Fatal(err)
		}
		tally.take()
		if _, err := sess.Update(c); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := sess.SolveWithItems(); err != nil {
			t.Fatal(err)
		}
		return tally.take()
	}
	tally := &workTally{}
	sess, rounds := fleetChurn(t, treesched.Options{Parallelism: 1, Recorder: tally}, 16, 1)
	add("warm-fleet", warmRound(sess, tally, rounds[0]))

	const churn = 8
	shape := workContended
	shape.Demands += churn
	in, err := workload.RandomTreeInstance(shape, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	n := workContended.Demands
	sess, err = treesched.NewSolver(treesched.Options{Parallelism: 1, Recorder: tally}).
		Session(publicInstance(t, in, in.Demands[:n]))
	if err != nil {
		t.Fatal(err)
	}
	var c treesched.Churn
	for i, d := range in.Demands[n:] {
		c.Remove = append(c.Remove, i)
		c.Add = append(c.Add, treesched.NewDemand{U: d.U, V: d.V, Profit: d.Profit, Access: d.Access})
	}
	add("warm-contended", warmRound(sess, tally, c))

	in, err = workload.RandomTreeInstance(workDistFleet, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := treesched.NewSolver(treesched.Options{Simulate: true, Parallelism: 1, Recorder: tally}).
		Solve(publicInstance(t, in, in.Demands))
	if err != nil {
		t.Fatal(err)
	}
	add("simulate-dist-fleet", tally.take("Rounds", res.Rounds, "Messages", res.Messages))

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(workGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, g := range lines {
		if i >= len(wl) || g != wl[i] {
			w := ""
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s:%d differs:\n got %s\nwant %s", workGoldenPath, i+1, g, w)
		}
	}
	t.Fatalf("%s has %d lines, the run %d", workGoldenPath, len(wl)-1, len(lines))
}
