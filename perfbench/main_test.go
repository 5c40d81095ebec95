package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"treesched/internal/workload"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, index int
		label    string
		beyond   int
	}{
		{n: 1, index: 0, label: "p100", beyond: 0},
		{n: 11, index: 0, label: "p9.09091", beyond: 10},
		{n: 12, index: 1, label: "p16.6667", beyond: 10},
		{n: 1000, index: 989, label: "p99", beyond: 10},
		{n: 60000, index: 59989, label: "p99.9833", beyond: 10},
	} {
		if got := tailIndex(tc.n); got != tc.index {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, got, tc.index)
		}
		if label, beyond := tailLabel(tc.n); label != tc.label || beyond != tc.beyond {
			t.Errorf("tailLabel(%d) = %s, %d; want %s, %d", tc.n, label, beyond, tc.label, tc.beyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if got := tailValue(xs); got != 90 {
		t.Errorf("tailValue = %v, want 90 (ten samples, 91..100, beyond)", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.5, 7.25, 1.5, 9, 2, 3.75, 8}, [3]float64{1.5, 3.75, 8}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The naming rules of BENCHMARK.json: a metric name is a letter or digit
// then at most 63 of [A-Za-z0-9_.-]; a unit is at most 16 of
// [A-Za-z0-9_/%.-].
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !validName.MatchString(d.name) || !validUnit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q breaks the naming rule", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"", "-lead", "a b", "a/b", strings.Repeat("x", 65)} {
		if validName.MatchString(bad) {
			t.Errorf("%q accepted as a metric name", bad)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// acceptance runs read, in step with the metrics this program prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json gates %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", sw.Name)
		}
	}
}

// tinyWorkloads are the three workloads at sizes a test can afford.
func tinyWorkloads() []workloadDef {
	dist := workloadDef{name: "dist-fleet", setupReps: 2, make: func() bench {
		return &solverBench{shape: workload.TreeConfig{Vertices: 16, Trees: 4, Demands: 32, ProfitRatio: 16, AccessMin: 1, AccessMax: 1},
			simulate: true, warmup: 1}
	}}
	return []workloadDef{
		{name: "solve-contended", setupReps: 2, probe: &dist, probeLayers: []string{"dist.", "simnet."}, make: func() bench {
			return &solverBench{shape: workload.TreeConfig{Vertices: 32, Trees: 3, Demands: 24, ProfitRatio: 16, AccessMin: 1, AccessMax: 3}, warmup: 4}
		}},
		{name: "serve-fleet", setupReps: 2, make: func() bench {
			return &serveBench{shape: workload.TreeConfig{Vertices: 16, Trees: 4, Demands: 48, ProfitRatio: 16, AccessMin: 1, AccessMax: 1},
				churn: 2, warmup: 4, workers: 2}
		}},
		dist,
	}
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runTiny(t *testing.T, w workloadDef, seed int64, traced bool) (string, resultLine) {
	t.Helper()
	var out bytes.Buffer
	res, err := measure(w, seed, 24, traced, &out)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	printResult(&out, res, traced)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: result line: %v", w.name, err)
	}
	return out.String(), r
}

// TestEveryMetricReported runs each workload at a tiny size, untraced and
// traced, and requires a correct run printing every metric with its unit.
func TestEveryMetricReported(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			text, r := runTiny(t, w, 3, traced)
			if !r.Correct || r.Failed != 0 || r.Attempted != 24 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, r.Correct, r.Attempted, r.Failed, text)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(text, "\n"+d.name+" ") {
					t.Errorf("%s traced=%v: no line for %s", w.name, traced, d.name)
				}
			}
			ungated := []string{"error_rate 0 ratio\n", "op_p50_ms ", "op_tail_ms ", "demands_per_s "}
			if !traced {
				ungated = append(ungated, "setup_wall_s ")
			}
			for _, line := range ungated {
				if !strings.Contains(text, "\n"+line) {
					t.Errorf("%s traced=%v: no %q line", w.name, traced, line)
				}
			}
			if traced && w.probe != nil && r.Metrics["simnet.messages"].Value <= 0 {
				t.Errorf("%s: the layer probe left simnet.messages at %v", w.name, r.Metrics["simnet.messages"].Value)
			}
			if !traced {
				for _, d := range endToEnd {
					if r.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.name, r.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestSameSeedSameRun requires two runs at one seed to print the same
// digests and the same exact metrics, and a different seed to change the
// inputs.
func TestSameSeedSameRun(t *testing.T) {
	digests := func(text string) string {
		var keep []string
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "digest") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	exact := []string{"treesched.reprepares", "engine.cold_solves", "serve.batch_mean",
		"dist.schedule_rounds", "simnet.messages", "simnet.max_message_size"}
	for _, w := range tinyWorkloads() {
		a, ra := runTiny(t, w, 7, true)
		b, rb := runTiny(t, w, 7, true)
		c, _ := runTiny(t, w, 8, true)
		if digests(a) == "" || digests(a) != digests(b) {
			t.Errorf("%s: digests differ at one seed:\n%s\n%s", w.name, digests(a), digests(b))
		}
		if digests(a) == digests(c) {
			t.Errorf("%s: seeds 7 and 8 print the same digests", w.name)
		}
		for _, name := range exact {
			if ra.Metrics[name] != rb.Metrics[name] {
				t.Errorf("%s: %s = %v then %v", w.name, name, ra.Metrics[name], rb.Metrics[name])
			}
		}
		if w.name == "serve-fleet" && ra.Metrics["serve.batch_mean"].Value != 1 {
			t.Errorf("serve-fleet: batch mean %v", ra.Metrics["serve.batch_mean"].Value)
		}
		_, ua := runTiny(t, w, 7, false)
		_, ub := runTiny(t, w, 7, false)
		if ua.Metrics["certified_ratio"] != ub.Metrics["certified_ratio"] {
			t.Errorf("%s: certified_ratio %v then %v", w.name, ua.Metrics["certified_ratio"], ub.Metrics["certified_ratio"])
		}
	}
}
