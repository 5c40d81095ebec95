package lint_test

import (
	"strings"
	"testing"

	"treesched/internal/lint"
	"treesched/internal/lint/linttest"
)

func TestMaprangeGolden(t *testing.T) {
	linttest.Run(t, "maprange", lint.Maprange)
}

// TestMaprangeCatchesCombinePerResourceShape pins the acceptance
// criterion: the §6 per-resource combine as once written over maps, its
// slices.Sorted(maps.Keys(...)) iteration replaced by a raw map range —
// the last-ulp drift bug it once had — must be a maprange finding.
// testdata/src/regression holds that copy; the live engine package must
// stay clean (TestLiveTreeClean).
func TestMaprangeCatchesCombinePerResourceShape(t *testing.T) {
	linttest.Run(t, "regression", lint.Maprange)
}

// TestLiveTreeClean asserts the full schedvet suite over every module
// package reports nothing: the codebase is at zero findings, so any
// new diagnostic in CI is a real regression, not pre-existing noise.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	findings := linttest.Findings(t, []string{"treesched/..."}, lint.All()...)
	if len(findings) > 0 {
		t.Fatalf("schedvet findings on the live tree:\n%s", strings.Join(findings, "\n"))
	}
}
