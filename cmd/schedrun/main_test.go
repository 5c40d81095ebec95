package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treesched/internal/workload"
)

// writeInstance writes a small instance of the given kind and height mix,
// generated at a fixed seed, and returns its path.
func writeInstance(t *testing.T, kind string, heights workload.HeightMix) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	switch kind {
	case "tree":
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 12, Trees: 2, Demands: 8, ProfitRatio: 4, Heights: heights,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
	case "line":
		in, err := workload.RandomLineInstance(workload.LineConfig{
			Slots: 20, Resources: 2, Demands: 6, ProcMin: 2, ProcMax: 5, Heights: heights,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestRunTreeAlgorithms(t *testing.T) {
	path := writeInstance(t, "tree", workload.UnitHeights)
	for _, algo := range []string{"auto", "unit", "arbitrary", "sequential", "exact"} {
		if err := run(path, algo, 0.1, 1, false, "ideal"); err != nil {
			t.Errorf("algorithm %s: %v", algo, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := runOutput(t, f)
	if err != nil {
		t.Fatalf("run failed: %v (output so far: %q)", err, out)
	}
	return out
}

func TestRunTreeSimulated(t *testing.T) {
	path := writeInstance(t, "tree", workload.UnitHeights)
	out := captureStdout(t, func() error {
		return run(path, "unit", 0.3, 1, true, "ideal")
	})
	if !strings.Contains(out, "profit ") {
		t.Errorf("missing engine result line in output:\n%s", out)
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "simulated:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("missing printSimulated line in output:\n%s", out)
	}
	for _, want := range []string{"processors", "schedule rounds", "busy", "messages", "max message"} {
		if !strings.Contains(line, want) {
			t.Errorf("simulated line missing %q: %s", want, line)
		}
	}
	var procs, schedRounds, busy, msgs, maxMsg int
	if _, err := fmt.Sscanf(line, "simulated: %d processors, %d schedule rounds (%d busy), %d messages, max message %d",
		&procs, &schedRounds, &busy, &msgs, &maxMsg); err != nil {
		t.Fatalf("unparseable simulated line %q: %v", line, err)
	}
	if procs <= 0 || schedRounds <= 0 || busy <= 0 || msgs <= 0 || maxMsg <= 0 {
		t.Errorf("degenerate simulated stats: %s", line)
	}
	if busy > schedRounds {
		t.Errorf("busy rounds %d exceed schedule rounds %d", busy, schedRounds)
	}
}

// TestRunLineSimulated covers the -simulate path on the §7 line reduction.
func TestRunLineSimulated(t *testing.T) {
	path := writeInstance(t, "line", workload.UnitHeights)
	out := captureStdout(t, func() error {
		return run(path, "unit", 0.3, 1, true, "ideal")
	})
	if !strings.Contains(out, "simulated:") {
		t.Errorf("missing simulated line:\n%s", out)
	}
}

// TestRunArbitrarySimulated covers -simulate on the §6 wide/narrow split.
func TestRunArbitrarySimulated(t *testing.T) {
	path := writeInstance(t, "tree", workload.UnitHeights)
	out := captureStdout(t, func() error {
		return run(path, "arbitrary", 0.3, 1, true, "ideal")
	})
	if !strings.Contains(out, "simulated:") {
		t.Fatalf("missing simulated line for arbitrary algorithm:\n%s", out)
	}
}

// TestRunSimulateRejectedForNonDistributed: -simulate with the sequential or
// exact baselines is an error, not a silent no-op.
func TestRunSimulateRejectedForNonDistributed(t *testing.T) {
	path := writeInstance(t, "tree", workload.UnitHeights)
	for _, algo := range []string{"sequential", "exact"} {
		err := run(path, algo, 0.1, 1, true, "ideal")
		if err == nil || !strings.Contains(err.Error(), "-simulate") {
			t.Errorf("algorithm %s with -simulate: got %v, want rejection", algo, err)
		}
	}
}

func TestRunLine(t *testing.T) {
	path := writeInstance(t, "line", workload.UnitHeights)
	for _, algo := range []string{"auto", "unit", "exact"} {
		if err := run(path, algo, 0.1, 1, false, "ideal"); err != nil {
			t.Errorf("algorithm %s: %v", algo, err)
		}
	}
	if err := run(path, "sequential", 0.1, 1, false, "ideal"); err == nil {
		t.Error("sequential on line accepted")
	}
}

func TestRunDecompositionChoices(t *testing.T) {
	path := writeInstance(t, "tree", workload.UnitHeights)
	for _, d := range []string{"ideal", "balancing", "rootfix"} {
		if err := run(path, "unit", 0.2, 1, false, d); err != nil {
			t.Errorf("decomp %s: %v", d, err)
		}
	}
	if err := run(path, "unit", 0.2, 1, false, "fancy"); err == nil ||
		!strings.Contains(err.Error(), "decomposition") {
		t.Errorf("unknown decomposition accepted: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.json"), "auto", 0.1, 1, false, "ideal"); err == nil {
		t.Error("missing file accepted")
	}
	path := writeInstance(t, "tree", workload.UnitHeights)
	if err := run(path, "quantum", 0.1, 1, false, "ideal"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
