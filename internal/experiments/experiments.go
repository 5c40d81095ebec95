// Package experiments implements the reproduction experiment suite: every
// illustrated scenario (Figures 1–3, 6) and every quantitative claim
// (Lemmas 4.1–4.3, 5.1, 6.1–6.2; Theorems 5.3, 6.3, 7.1–7.2; Appendix A)
// is measured and rendered as a table. Each exp_*.go file registers its
// experiments with their IDs and titles. cmd/schedbench drives this
// package and prints the tables (`go run ./cmd/schedbench -experiment
// all`).
package experiments

import (
	"fmt"
	"sort"

	"treesched/internal/stats"
)

// Config tunes the suite.
type Config struct {
	Seed  int64
	Quick bool // smaller sweeps for smoke runs
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*stats.Table, error)
}

var registry []Experiment

func register(id, title string, run func(Config) ([]*stats.Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the experiments in declaration order (E1..E12, A1..A3).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		return orderKey(out[i].ID) < orderKey(out[j].ID)
	})
	return out
}

// Lookup finds an experiment by id (case-sensitive, e.g. "E6").
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

func orderKey(id string) string {
	// E1..E12 then A1..A3: pad numbers for lexicographic order, letters
	// E < A by prefixing.
	kind := "1"
	if id[0] == 'A' {
		kind = "2"
	}
	num := id[1:]
	for len(num) < 3 {
		num = "0" + num
	}
	return kind + num
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
