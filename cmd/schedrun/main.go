// Command schedrun loads a JSON instance (tree or line, as produced by
// schedgen) and solves it with the selected algorithm, printing the
// schedule and certification data.
//
// Usage:
//
//	schedrun [-algorithm auto|unit|arbitrary|sequential|exact] [-epsilon 0.1]
//	         [-seed 1] [-simulate] [-decomp ideal|balancing|rootfix] inst.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/model"
	"treesched/internal/seq"
)

func main() {
	var (
		algorithm = flag.String("algorithm", "auto", "auto, unit, arbitrary, sequential or exact")
		epsilon   = flag.Float64("epsilon", 0.1, "slackness target λ = 1-ε")
		seed      = flag.Int64("seed", 1, "random seed")
		simulate  = flag.Bool("simulate", false, "execute over the message-passing simulator (honest round counts)")
		decompStr = flag.String("decomp", "ideal", "tree decomposition: ideal, balancing or rootfix")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: schedrun [flags] instance.json")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *algorithm, *epsilon, *seed, *simulate, *decompStr); err != nil {
		fmt.Fprintln(os.Stderr, "schedrun:", err)
		os.Exit(1)
	}
}

func run(path, algorithm string, epsilon float64, seed int64, simulate bool, decompStr string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	kind, raw, err := model.SniffKind(f)
	if err != nil {
		return err
	}

	var dk engine.DecompKind
	switch decompStr {
	case "ideal":
		dk = engine.IdealDecomp
	case "balancing":
		dk = engine.BalancingDecomp
	case "rootfix":
		dk = engine.RootFixingDecomp
	default:
		return fmt.Errorf("unknown decomposition %q", decompStr)
	}

	var items []engine.Item
	var describe func(id int) string
	unit := true
	switch kind {
	case "tree":
		in, err := model.ReadInstanceJSON(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		if algorithm == "sequential" {
			if simulate {
				return fmt.Errorf("-simulate applies to the distributed algorithms (unit, arbitrary), not %q", algorithm)
			}
			return runSequential(in)
		}
		items, err = engine.BuildTreeItems(in, dk)
		if err != nil {
			return err
		}
		dis := in.Expand()
		describe = func(id int) string {
			d := dis[id]
			return fmt.Sprintf("demand %d <%d,%d> on tree %d (h=%.2f, p=%.3f)", d.Demand, d.U, d.V, d.Tree, d.Height, d.Profit)
		}
		unit = in.MinHeight() >= 1
	case "line":
		in, err := model.ReadLineInstanceJSON(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		if algorithm == "sequential" {
			return fmt.Errorf("sequential algorithm applies to tree instances")
		}
		items, err = engine.BuildLineItems(in)
		if err != nil {
			return err
		}
		dis := in.Expand()
		describe = func(id int) string {
			d := dis[id]
			return fmt.Sprintf("job %d slots [%d,%d] on resource %d (h=%.2f, p=%.3f)", d.Demand, d.Start, d.End, d.Resource, d.Height, d.Profit)
		}
		unit = in.MinHeight() >= 1
	default:
		return fmt.Errorf("unknown instance kind %q", kind)
	}

	if algorithm == "auto" {
		if unit {
			algorithm = "unit"
		} else {
			algorithm = "arbitrary"
		}
	}
	cfg := engine.Config{Epsilon: epsilon, Seed: seed}
	switch algorithm {
	case "unit":
		cfg.Mode = engine.Unit
		res, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			return err
		}
		printRun(res.Selected, res.Profit, res.Bound, describe)
		fmt.Printf("λ = %.4f, ∆ = %d, epochs×stages×steps = %d×%d×%d\n",
			res.Lambda, res.Delta, res.Epochs, res.Stages, res.Steps)
		if simulate {
			return printSimulated(items, cfg)
		}
	case "arbitrary":
		res, err := engine.SolveArbitrary(items, cfg, nil)
		if err != nil {
			return err
		}
		printRun(res.Selected, res.Profit, res.Bound, describe)
		if simulate {
			return printSimulatedArbitrary(items, cfg, res.Profit)
		}
	case "exact":
		if simulate {
			return fmt.Errorf("-simulate applies to the distributed algorithms (unit, arbitrary), not %q", algorithm)
		}
		if len(items) > seq.BruteForceLimit {
			return fmt.Errorf("exact solver handles at most %d demand instances, got %d", seq.BruteForceLimit, len(items))
		}
		profit, sel := seq.Brute(items, unit)
		printRun(sel, profit, profit, describe)
	default:
		return fmt.Errorf("unknown algorithm %q", algorithm)
	}
	return nil
}

func runSequential(in *model.Instance) error {
	res, err := seq.AppendixA(in)
	if err != nil {
		return err
	}
	dis := in.Expand()
	fmt.Printf("profit %.4f (dual bound %.4f)\n", res.Profit, res.Bound)
	for _, id := range res.Selected {
		d := dis[id]
		fmt.Printf("  demand %d <%d,%d> on tree %d (p=%.3f)\n", d.Demand, d.U, d.V, d.Tree, d.Profit)
	}
	return nil
}

func printRun(selected []int, profit, bound float64, describe func(int) string) {
	fmt.Printf("profit %.4f (certified optimum ≤ %.4f)\n", profit, bound)
	for _, id := range selected {
		fmt.Printf("  %s\n", describe(id))
	}
}

func printSimulated(items []engine.Item, cfg engine.Config) error {
	res, err := dist.Run(items, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %d processors, %d schedule rounds (%d busy), %d messages, max message %d·M\n",
		res.Processors, res.ScheduleRounds, res.Stats.BusyRounds, res.Stats.Messages, res.Stats.MaxMessageSize)
	return nil
}

// printSimulatedArbitrary runs the library's distributed arbitrary-height
// execution: the §6 rule of engine.SolveHeightClasses with each height
// class simulated, reporting the summed communication costs. The combined
// profit must equal the engine's.
func printSimulatedArbitrary(items []engine.Item, cfg engine.Config, engineProfit float64) error {
	procs, rounds, busy, msgs, maxMsg := 0, 0, 0, 0, 0
	_, profit, err := engine.SolveHeightClasses(items, cfg, func(class []engine.Item, ccfg engine.Config) ([]int, error) {
		res, err := dist.Run(class, ccfg)
		if err != nil {
			return nil, err
		}
		procs += res.Processors
		rounds += res.ScheduleRounds
		busy += res.Stats.BusyRounds
		msgs += res.Stats.Messages
		maxMsg = max(maxMsg, res.Stats.MaxMessageSize)
		return res.Selected, nil
	})
	if err != nil {
		return err
	}
	if math.Abs(profit-engineProfit) > 1e-6*math.Max(1, engineProfit) {
		return fmt.Errorf("internal error: simulated profit %v diverged from engine %v", profit, engineProfit)
	}
	fmt.Printf("simulated: %d processors, %d schedule rounds (%d busy), %d messages, max message %d·M\n",
		procs, rounds, busy, msgs, maxMsg)
	return nil
}
