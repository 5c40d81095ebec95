package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"treesched/internal/workload"
)

// goldenPath pins schedrun's complete output, error text included, for
// every algorithm with and without -simulate on a mixed-height tree and a
// mixed-height line, so both §6 classes of the arbitrary algorithm run.
const goldenPath = "testdata/run.golden"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" with the output of this run")

// runOutput runs f with os.Stdout redirected and returns what it printed
// and its error.
func runOutput(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return string(<-out), ferr
}

// TestRunGolden compares schedrun's output on the mixed-height instances
// with goldenPath, byte for byte. Regenerate with
// go test ./cmd/schedrun/ -run Golden -update.
func TestRunGolden(t *testing.T) {
	var b strings.Builder
	for _, kind := range []string{"tree", "line"} {
		path := writeInstance(t, kind, workload.MixedHeights)
		for _, algo := range []string{"auto", "unit", "arbitrary", "exact"} {
			for _, simulate := range []bool{false, true} {
				fmt.Fprintf(&b, "== %s -algorithm %s -simulate=%t\n", kind, algo, simulate)
				out, err := runOutput(t, func() error {
					return run(path, algo, 0.2, 7, simulate, "ideal")
				})
				b.WriteString(out)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s:%d differs:\n got %q\nwant %q", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, the output %d", goldenPath, len(wl), len(gl))
}
