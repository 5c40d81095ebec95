package model

import (
	"fmt"
	"math"
)

// LineDemand is a demand on line-networks with windows (§7): the job may be
// executed on any segment of Proc consecutive timeslots inside
// [Release, Deadline], on any accessible resource.
type LineDemand struct {
	ID       DemandID
	Release  int // first admissible timeslot (1-based, inclusive)
	Deadline int // last admissible timeslot (inclusive)
	Proc     int // processing time ρ in timeslots
	Profit   float64
	Height   float64
	Access   []TreeID
}

// Wide reports whether the demand is wide (§6): h > 1/2.
func (d LineDemand) Wide() bool { return d.Height > 0.5 }

// LineInstance is a complete line-network problem: NumSlots timeslots
// (numbered 1..NumSlots) on each of NumResources identical resources of
// capacity 1.
type LineInstance struct {
	NumSlots     int
	NumResources int
	Demands      []LineDemand
}

// Validate checks structural invariants.
func (in *LineInstance) Validate() error {
	if in.NumSlots <= 0 {
		return fmt.Errorf("model: line instance needs at least one timeslot")
	}
	if in.NumResources <= 0 {
		return fmt.Errorf("model: line instance needs at least one resource")
	}
	for i, d := range in.Demands {
		if d.ID != i {
			return fmt.Errorf("model: line demand %d has ID %d", i, d.ID)
		}
		if d.Proc <= 0 {
			return fmt.Errorf("model: line demand %d has processing time %d", i, d.Proc)
		}
		if d.Release < 1 || d.Deadline > in.NumSlots || d.Release+d.Proc-1 > d.Deadline {
			return fmt.Errorf("model: line demand %d window [%d,%d] cannot fit ρ=%d in %d slots",
				i, d.Release, d.Deadline, d.Proc, in.NumSlots)
		}
		if !(d.Profit > 0) || math.IsInf(d.Profit, 0) {
			return fmt.Errorf("model: line demand %d has invalid profit %v", i, d.Profit)
		}
		if !(d.Height > 0) || d.Height > 1 {
			return fmt.Errorf("model: line demand %d has invalid height %v", i, d.Height)
		}
		if err := validateAccess("line demand", i, d.Access, in.NumResources, "resource"); err != nil {
			return err
		}
	}
	return nil
}

// ProfitRange returns (pmin, pmax) over all demands; (0,0) if none.
func (in *LineInstance) ProfitRange() (pmin, pmax float64) {
	for i, d := range in.Demands {
		if i == 0 || d.Profit < pmin {
			pmin = d.Profit
		}
		if i == 0 || d.Profit > pmax {
			pmax = d.Profit
		}
	}
	return pmin, pmax
}

// MinHeight returns the minimum demand height; 1 if there are no demands.
func (in *LineInstance) MinHeight() float64 {
	h := 1.0
	for _, d := range in.Demands {
		if d.Height < h {
			h = d.Height
		}
	}
	return h
}

// LineDemandInstance is one (demand, resource, start) choice: the interval
// [Start, End] of timeslots on one resource (§7). Timeslots play the role of
// edges; slot s on resource q has edge key MakeEdgeKey(q, s).
type LineDemandInstance struct {
	ID       InstanceID
	Demand   DemandID
	Resource TreeID
	Start    int // first occupied timeslot (inclusive)
	End      int // last occupied timeslot (inclusive)
	Profit   float64
	Height   float64
}

// Len returns the number of occupied timeslots (the paper's len(d)).
func (di LineDemandInstance) Len() int { return di.End - di.Start + 1 }

// Mid returns the paper's mid-point timeslot ⌊(s+e)/2⌋.
func (di LineDemandInstance) Mid() int { return (di.Start + di.End) / 2 }

// Path returns the edge keys of the occupied slots.
func (di LineDemandInstance) Path() []EdgeKey {
	out := make([]EdgeKey, 0, di.Len())
	for s := di.Start; s <= di.End; s++ {
		out = append(out, MakeEdgeKey(di.Resource, s))
	}
	return out
}

// Expand builds all line demand instances: for each demand, each accessible
// resource and each admissible start time. Order is deterministic.
func (in *LineInstance) Expand() []LineDemandInstance {
	var out []LineDemandInstance
	for _, d := range in.Demands {
		for _, q := range d.Access {
			for s := d.Release; s+d.Proc-1 <= d.Deadline; s++ {
				out = append(out, LineDemandInstance{
					ID:       len(out),
					Demand:   d.ID,
					Resource: q,
					Start:    s,
					End:      s + d.Proc - 1,
					Profit:   d.Profit,
					Height:   d.Height,
				})
			}
		}
	}
	return out
}

// LineOverlapping reports whether two line instances occupy a common slot on
// the same resource.
func LineOverlapping(a, b *LineDemandInstance) bool {
	return a.Resource == b.Resource && a.Start <= b.End && b.Start <= a.End
}

// LineConflicting reports whether two distinct line instances conflict: same
// demand (including two start times of one demand) or overlapping. An
// instance never conflicts with itself.
func LineConflicting(a, b *LineDemandInstance) bool {
	if a.ID == b.ID {
		return false
	}
	if a.Demand == b.Demand {
		return true
	}
	return LineOverlapping(a, b)
}

// LengthRange returns (Lmin, Lmax) over the given instances; (0,0) if none.
func LengthRange(items []LineDemandInstance) (lmin, lmax int) {
	for i, d := range items {
		l := d.Len()
		if i == 0 || l < lmin {
			lmin = l
		}
		if i == 0 || l > lmax {
			lmax = l
		}
	}
	return lmin, lmax
}
