package model

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// fig1Instance reproduces Figure 1 of the paper: one line resource, demands
// A (h=0.5), B (h=0.7), C (h=0.4) where A and B overlap in time but C is
// disjoint from both, so {A,C} and {B,C} fit but {A,B} does not.
func fig1Instance() *LineInstance {
	return &LineInstance{
		NumSlots:     12,
		NumResources: 1,
		Demands: []LineDemand{
			{ID: 0, Release: 2, Deadline: 6, Proc: 5, Profit: 1, Height: 0.5, Access: []TreeID{0}},  // A
			{ID: 1, Release: 4, Deadline: 8, Proc: 5, Profit: 1, Height: 0.7, Access: []TreeID{0}},  // B
			{ID: 2, Release: 9, Deadline: 12, Proc: 4, Profit: 1, Height: 0.4, Access: []TreeID{0}}, // C
		},
	}
}

func TestFig1Feasibility(t *testing.T) {
	in := fig1Instance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	insts := in.Expand()
	// Windows are tight: each demand has exactly one instance.
	if len(insts) != 3 {
		t.Fatalf("expected 3 instances, got %d", len(insts))
	}
	a, b, c := &insts[0], &insts[1], &insts[2]
	if !LineOverlapping(a, b) {
		t.Error("A and B must overlap")
	}
	if LineOverlapping(a, c) || LineOverlapping(b, c) {
		t.Error("C must be disjoint from A and B")
	}
	// {A,C}: capacities fine trivially (disjoint). {A,B}: 0.5+0.7 > 1.
	if a.Height+b.Height <= 1 {
		t.Error("A and B should not fit together")
	}
}

func TestLineValidateRejects(t *testing.T) {
	base := func() *LineInstance { return fig1Instance() }
	tests := []struct {
		name   string
		mutate func(*LineInstance)
	}{
		{"id mismatch", func(in *LineInstance) { in.Demands[1].ID = 0 }},
		{"zero proc", func(in *LineInstance) { in.Demands[0].Proc = 0 }},
		{"window too small", func(in *LineInstance) { in.Demands[0].Proc = 99 }},
		{"release before 1", func(in *LineInstance) { in.Demands[0].Release = 0 }},
		{"deadline beyond slots", func(in *LineInstance) { in.Demands[2].Deadline = 50 }},
		{"bad profit", func(in *LineInstance) { in.Demands[0].Profit = 0 }},
		{"bad height", func(in *LineInstance) { in.Demands[0].Height = 2 }},
		{"no access", func(in *LineInstance) { in.Demands[0].Access = nil }},
		{"unknown resource", func(in *LineInstance) { in.Demands[0].Access = []TreeID{5} }},
		{"repeated resource", func(in *LineInstance) { in.Demands[0].Access = []TreeID{0, 0} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in := base()
			tc.mutate(in)
			if err := in.Validate(); err == nil {
				t.Fatal("Validate() succeeded, want error")
			}
		})
	}
}

func TestLineExpandEnumeratesStarts(t *testing.T) {
	in := &LineInstance{
		NumSlots:     10,
		NumResources: 2,
		Demands: []LineDemand{
			{ID: 0, Release: 2, Deadline: 7, Proc: 3, Profit: 1, Height: 1, Access: []TreeID{0, 1}},
		},
	}
	insts := in.Expand()
	// Starts 2,3,4,5 on each of 2 resources = 8 instances.
	if len(insts) != 8 {
		t.Fatalf("expected 8 instances, got %d", len(insts))
	}
	for _, di := range insts {
		if di.Len() != 3 {
			t.Errorf("instance %d has length %d, want 3", di.ID, di.Len())
		}
		if di.Start < 2 || di.End > 7 {
			t.Errorf("instance %d outside window: [%d,%d]", di.ID, di.Start, di.End)
		}
	}
	// Instances of the same demand always conflict even when time-disjoint
	// on different resources.
	if !LineConflicting(&insts[0], &insts[7]) {
		t.Error("same-demand instances must conflict")
	}
}

func TestLinePathMatchesSlots(t *testing.T) {
	di := LineDemandInstance{ID: 0, Demand: 0, Resource: 3, Start: 5, End: 8, Profit: 1, Height: 1}
	path := di.Path()
	if len(path) != 4 {
		t.Fatalf("path length %d, want 4", len(path))
	}
	for i, k := range path {
		if k.Tree() != 3 || k.Edge() != 5+i {
			t.Errorf("path[%d] = %v, want T3/e%d", i, k, 5+i)
		}
	}
	if di.Mid() != 6 {
		t.Errorf("Mid = %d, want 6", di.Mid())
	}
}

func TestLineOverlapProperty(t *testing.T) {
	// Overlap is symmetric and matches the interval-intersection definition.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() LineDemandInstance {
			s := 1 + r.Intn(20)
			return LineDemandInstance{
				Resource: r.Intn(2),
				Start:    s,
				End:      s + r.Intn(6),
			}
		}
		a, b := mk(), mk()
		got := LineOverlapping(&a, &b)
		if got != LineOverlapping(&b, &a) {
			return false
		}
		want := false
		if a.Resource == b.Resource {
			for s := a.Start; s <= a.End; s++ {
				if s >= b.Start && s <= b.End {
					want = true
				}
			}
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLineJSONRoundTrip(t *testing.T) {
	in := fig1Instance()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	kind, raw, err := SniffKind(bytes.NewReader(buf.Bytes()))
	if err != nil || kind != "line" {
		t.Fatalf("SniffKind = %q, %v", kind, err)
	}
	got, err := ReadLineInstanceJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestLengthRange(t *testing.T) {
	in := fig1Instance()
	lmin, lmax := LengthRange(in.Expand())
	if lmin != 4 || lmax != 5 {
		t.Errorf("LengthRange = (%d,%d), want (4,5)", lmin, lmax)
	}
}
