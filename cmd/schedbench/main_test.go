package main

import "testing"

func TestRunSingleExperiment(t *testing.T) {
	if err := run("E1", 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("E99", 1, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRecorderOverheadMeasurement checks the recorder gate's measurement
// on the gate's own instance: it runs at least recorderOverheadMinPairs
// bare/attached pairs and reports a positive baseline and attached time.
// The 2% bound itself is checked by the gate run in CI, not here, where
// the race detector and parallel test binaries skew the ratio.
func TestRecorderOverheadMeasurement(t *testing.T) {
	items, err := recorderGateItems(1)
	if err != nil {
		t.Fatal(err)
	}
	noopNs, nilNs, pairs, err := timeRecorderOverhead(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pairs < recorderOverheadMinPairs {
		t.Errorf("%d pairs, want at least %d", pairs, recorderOverheadMinPairs)
	}
	if nilNs <= 0 || noopNs <= 0 {
		t.Errorf("non-positive timings: nil %d ns, noop-attached %d ns", nilNs, noopNs)
	}
}
