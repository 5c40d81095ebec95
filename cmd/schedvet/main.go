// Schedvet is the project's determinism-aware static-analysis suite: a
// multichecker that machine-enforces the bitwise-reproducibility
// invariants the engine's property and fuzz suites assert dynamically.
//
// Usage:
//
//	go run ./cmd/schedvet ./...
//	go run ./cmd/schedvet -list
//	go run ./cmd/schedvet ./internal/engine ./internal/dual
//
// Analyzers (see internal/lint for the rules and the waiver grammar):
//
//	maprange       range over maps in deterministic packages
//	detsource      math/rand, time.Now/Since, os.Getenv in deterministic packages
//	hotpath        map allocation / fmt / defer / interface boxing in //schedvet:hot functions
//	waiverhygiene  malformed, misplaced, or unused //schedvet: directives
//
// Exit status: 0 clean, 1 findings, 2 load or usage error. CI runs
// `go run ./cmd/schedvet ./...` on every PR, so a nondeterministic map
// iteration of the shape of the last-ulp drift bug the §6 per-resource
// combine once had is a build break, not a fuzz-lottery ticket.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"treesched/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: schedvet [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(*list, flag.Args(), os.Stdout, os.Stderr))
}

func run(list bool, patterns []string, stdout, stderr io.Writer) int {
	analyzers := lint.All()
	if list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "schedvet: %v\n", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers, lint.IsDeterministic)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "schedvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
