package dist_test

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"

	"treesched/internal/simnet"
)

// goldenPath pins the simulator's Stats for every equivalence case, one
// line per case: its tag, a tab, and the Stats as JSON. Every line was
// generated while the retired goroutine-per-processor driver still ran
// beside Network.Run and agreed with it, so the file keeps that driver's
// evidence without a second execution.
const goldenPath = "testdata/stats.golden"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" with the Stats of this run")

// golden is goldenPath's content: the tags in file order and each tag's
// Stats JSON. Under -update, checkStats overwrites the lines of the cases
// it sees and TestMain writes the file back.
var golden struct {
	tags  []string
	stats map[string]string
	err   error
}

func TestMain(m *testing.M) {
	flag.Parse()
	golden.err = readGolden()
	if *update && errors.Is(golden.err, fs.ErrNotExist) {
		golden.err = nil
	}
	code := m.Run()
	if code == 0 && *update {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func readGolden() error {
	golden.stats = make(map[string]string)
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		tag, stats, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("%s:%d: no tab between tag and Stats", goldenPath, i+1)
		}
		if _, dup := golden.stats[tag]; dup {
			return fmt.Errorf("%s:%d: tag %q repeats", goldenPath, i+1, tag)
		}
		golden.tags = append(golden.tags, tag)
		golden.stats[tag] = stats
	}
	return nil
}

func writeGolden() error {
	var b strings.Builder
	for _, tag := range golden.tags {
		b.WriteString(tag + "\t" + golden.stats[tag] + "\n")
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}

// checkStats compares st with the golden line for tag; a missing or
// different line fails the test. Under -update it records st instead.
func checkStats(t *testing.T, tag string, st simnet.Stats) {
	t.Helper()
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	want, ok := golden.stats[tag]
	switch {
	case *update:
		if !ok {
			golden.tags = append(golden.tags, tag)
		}
		golden.stats[tag] = got
	case !ok:
		t.Errorf("%s: no line in %s (rerun with -update)", tag, goldenPath)
	case got != want:
		t.Errorf("%s: Stats differ from %s:\ngot  %s\nwant %s", tag, goldenPath, got, want)
	}
}
