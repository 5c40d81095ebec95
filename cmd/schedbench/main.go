// Command schedbench runs the reproduction experiment suite of
// internal/experiments (experiments E1..E12 and ablations A1..A3) and
// prints their result tables. With -dist-smoke it instead solves one large
// fleet end to end over the simulator, and with -recorder-gate it checks
// that a no-op recorder costs a solve at most 2% (obsbench.go).
//
// Usage:
//
//	schedbench [-experiment all|E1|...|A3] [-seed N] [-quick]
//	schedbench -dist-smoke N [-seed S]
//	schedbench -recorder-gate [-seed S]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/experiments"
	"treesched/internal/workload"
)

func main() {
	var (
		which     = flag.String("experiment", "all", "experiment id (E1..E12, A1..A3) or 'all'")
		seed      = flag.Int64("seed", 1, "base random seed")
		quick     = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
		distSmoke = flag.Int("dist-smoke", 0, "run one end-to-end distributed solve of this many demands (fleet workload, batched driver) and print the headline numbers")
		recGate   = flag.Bool("recorder-gate", false, "measure the no-op recorder's overhead on a solve and fail above 2%")
	)
	flag.Parse()
	var err error
	switch {
	case *recGate:
		err = runRecorderGate(*seed)
	case *distSmoke > 0:
		err = runDistSmoke(*distSmoke, *seed)
	default:
		err = run(*which, *seed, *quick)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
}

func run(which string, seed int64, quick bool) error {
	cfg := experiments.Config{Seed: seed, Quick: quick}
	var list []experiments.Experiment
	if which == "all" {
		list = experiments.All()
	} else {
		e, err := experiments.Lookup(which)
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	}
	for _, e := range list {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runDistSmoke is -dist-smoke N: one end-to-end distributed solve of an
// N-demand fleet workload on the batched driver, printing the headline
// numbers (wall clock, rounds, messages, per-demand state). The CI smoke
// runs it at N ≥ 100000 to keep the million-demand path honest.
func runDistSmoke(demands int, seed int64) error {
	trees := demands / 64
	if trees < 1 {
		trees = 1
	}
	cfg := workload.TreeConfig{
		Vertices: 64, Trees: trees, Demands: demands, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}
	rng := rand.New(rand.NewSource(seed + 1))
	buildStart := time.Now()
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		return err
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		return err
	}
	buildNs := time.Since(buildStart)
	solveStart := time.Now()
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: seed})
	if err != nil {
		return err
	}
	solveNs := time.Since(solveStart)
	fmt.Printf("dist smoke: %d demands (%d items, %d processors)\n", demands, len(items), res.Processors)
	fmt.Printf("  build %v, solve %v\n", buildNs.Round(time.Millisecond), solveNs.Round(time.Millisecond))
	fmt.Printf("  schedule %d rounds (%d busy, %d skipped), %d messages, max size %d\n",
		res.ScheduleRounds, res.Stats.BusyRounds, res.Stats.SkippedRounds, res.Stats.Messages, res.Stats.MaxMessageSize)
	fmt.Printf("  node state %d bytes/demand, shared context %d bytes\n",
		res.NodeStateBytes/int64(res.Processors), res.SharedStateBytes)
	fmt.Printf("  selected %d items, profit %.3f, bound %.3f\n", len(res.Selected), res.Profit, res.Bound)
	return nil
}
