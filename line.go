package treesched

import (
	"fmt"

	"treesched/internal/engine"
	"treesched/internal/model"
)

// LineInstance is a line-network scheduling problem with windows (§7 of the
// paper): jobs with release times, deadlines and processing times compete
// for identical unit-capacity resources over a discrete timeline. Build with
// NewLineInstance and AddJob, then call SolveLine.
type LineInstance struct {
	slots     int
	resources int
	demands   []model.LineDemand
	err       error
}

// NewLineInstance creates a timeline of the given number of slots
// (numbered 1..slots) on the given number of identical resources.
func NewLineInstance(slots, resources int) *LineInstance {
	in := &LineInstance{slots: slots, resources: resources}
	if slots < 1 || resources < 1 {
		in.err = fmt.Errorf("treesched: need ≥ 1 slot and resource, got %d, %d", slots, resources)
	}
	return in
}

// JobOption customizes a job.
type JobOption func(*model.LineDemand)

// JobHeight sets the bandwidth requirement h ∈ (0, 1]; default 1.
func JobHeight(h float64) JobOption {
	return func(d *model.LineDemand) { d.Height = h }
}

// JobAccess restricts the job to the given resources; default all.
func JobAccess(resources ...int) JobOption {
	return func(d *model.LineDemand) { d.Access = append([]int(nil), resources...) }
}

// AddJob registers a job that needs proc consecutive slots within
// [release, deadline] and returns its id.
func (in *LineInstance) AddJob(release, deadline, proc int, profit float64, opts ...JobOption) int {
	d := model.LineDemand{
		ID: len(in.demands), Release: release, Deadline: deadline, Proc: proc,
		Profit: profit, Height: 1,
	}
	for _, opt := range opts {
		opt(&d)
	}
	in.demands = append(in.demands, d)
	return d.ID
}

func (in *LineInstance) build() (*model.LineInstance, error) {
	if in.err != nil {
		return nil, in.err
	}
	m := &model.LineInstance{NumSlots: in.slots, NumResources: in.resources}
	for _, d := range in.demands {
		if len(d.Access) == 0 {
			d.Access = allTrees(in.resources)
		}
		m.Demands = append(m.Demands, d)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("treesched: %w", err)
	}
	return m, nil
}

// SolveLine runs the selected algorithm on a line-network instance. The
// Assignment.Start field reports each job's chosen first timeslot.
func SolveLine(in *LineInstance, opts Options) (*Result, error) {
	m, err := in.build()
	if err != nil {
		return nil, err
	}
	opts.normalize()
	if opts.Algorithm == SequentialTree {
		return nil, fmt.Errorf("treesched: SequentialTree applies to tree instances; use a distributed algorithm for lines")
	}
	items, err := engine.BuildLineItems(m)
	if err != nil {
		return nil, err
	}
	dis := m.Expand()
	toAssignment := func(id int) Assignment {
		return Assignment{Demand: dis[id].Demand, Network: dis[id].Resource, Start: dis[id].Start}
	}
	return solveItems(items, opts, unitHeights(items), toAssignment)
}

// SolveLine runs the solver's configured algorithm on a line-network
// instance. Line instances carry no tree decomposition, so there is nothing
// to cache — the call exists so batch users drive every workload through
// one Solver (and its options).
func (s *Solver) SolveLine(in *LineInstance) (*Result, error) {
	return SolveLine(in, s.opts)
}
