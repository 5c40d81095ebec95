// Command schedbench runs the reproduction experiment suite of
// internal/experiments (experiments E1..E12 and ablations A1..A3) and
// prints their result tables. With -bench-json it instead runs the solve
// performance suite and writes a machine-readable treesched/bench/v1
// report (see BenchReport) so perf can be tracked across commits; with
// -compare it diffs two such reports and prints per-scenario speedups,
// optionally gating on a maximum regression.
//
// Usage:
//
//	schedbench [-experiment all|E1|...|A3] [-seed N] [-quick]
//	schedbench -bench-json FILE [-seed N] [-quick] [-trace-json]
//	schedbench -compare [-max-regression F] [-at SUBSTR] OLD.json NEW.json
//	schedbench -recorder-gate FILE [-max-overhead F]
//	schedbench -dist-smoke N [-seed S]
//
// -trace-json attaches an obs.Recorder to the engine, churn and dist
// scenarios of a -bench-json run and embeds each row's per-phase wall-time
// breakdown (additive "phases" field); -recorder-gate reads a report back
// and fails if its recorder-noop rows show the instrumentation seam costing
// more than -max-overhead over the nil-recorder baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"treesched/internal/experiments"
)

func main() {
	var (
		which     = flag.String("experiment", "all", "experiment id (E1..E12, A1..A3) or 'all'")
		seed      = flag.Int64("seed", 1, "base random seed")
		quick     = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
		benchJSON = flag.String("bench-json", "", "run the solve perf suite and write a treesched/bench/v1 JSON report to this file")
		compare   = flag.Bool("compare", false, "diff two treesched/bench/v1 reports (args: OLD.json NEW.json) and print per-scenario speedups")
		maxRegr   = flag.Float64("max-regression", 0, "with -compare: exit nonzero if a gated scenario's ns/op grew by more than this fraction (0 = report only)")
		at        = flag.String("at", "", "with -compare -max-regression: gate only scenarios whose name contains this substring")
		distSmoke = flag.Int("dist-smoke", 0, "run one end-to-end distributed solve of this many demands (fleet workload, batched driver) and print the headline numbers")
		traceJSON = flag.Bool("trace-json", false, "with -bench-json: attach a phase recorder and embed per-phase breakdowns in each row")
		recGate   = flag.String("recorder-gate", "", "check a -bench-json report's recorder-noop rows against -max-overhead and exit")
		maxOver   = flag.Float64("max-overhead", 0.02, "with -recorder-gate: maximum tolerated no-op recorder overhead fraction")
	)
	flag.Parse()
	if *recGate != "" {
		if err := runRecorderGate(*recGate, *maxOver); err != nil {
			fmt.Fprintln(os.Stderr, "schedbench:", err)
			os.Exit(1)
		}
		return
	}
	if *distSmoke > 0 {
		if err := runDistSmoke(*distSmoke, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "schedbench:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "schedbench: -compare needs exactly two report paths: OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *maxRegr, *at); err != nil {
			fmt.Fprintln(os.Stderr, "schedbench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *seed, *quick, *traceJSON); err != nil {
			fmt.Fprintln(os.Stderr, "schedbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*which, *seed, *quick); err != nil {
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
