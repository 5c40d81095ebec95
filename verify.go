package treesched

import (
	"fmt"
	"math"

	"treesched/internal/dual"
	"treesched/internal/model"
)

// Verify checks that a Result is a feasible schedule for the instance and
// reports its profit: every assigned demand exists and uses an accessible
// network, no demand is scheduled twice, on every edge of every network
// the scheduled heights sum to at most 1, and, once all of that holds,
// Profit is bit for bit the exact sum of the assigned demands' profits,
// rounded once, as every algorithm reports it. It returns nil for such
// results.
func Verify(in *Instance, res *Result) error {
	m, err := in.build(nil)
	if err != nil {
		return err
	}
	seen := make(map[int]bool, len(res.Assignments))
	usage := make(map[model.EdgeKey]float64)
	var profit dual.Sum
	for _, a := range res.Assignments {
		if a.Demand < 0 || a.Demand >= len(m.Demands) {
			return fmt.Errorf("treesched: assignment references unknown demand %d", a.Demand)
		}
		if seen[a.Demand] {
			return fmt.Errorf("treesched: demand %d assigned twice", a.Demand)
		}
		seen[a.Demand] = true
		d := m.Demands[a.Demand]
		accessible := false
		for _, q := range d.Access {
			if q == a.Network {
				accessible = true
				break
			}
		}
		if !accessible {
			return fmt.Errorf("treesched: demand %d assigned to inaccessible network %d", a.Demand, a.Network)
		}
		for _, e := range m.Trees[a.Network].PathEdges(d.U, d.V) {
			k := model.MakeEdgeKey(a.Network, e)
			usage[k] += d.Height
			if usage[k] > 1+dual.Tolerance {
				return fmt.Errorf("treesched: edge %v over capacity (%.9f)", k, usage[k])
			}
		}
		profit.Add(d.Profit)
	}
	return checkProfit(res, &profit)
}

// VerifyLine is Verify for line instances: assigned jobs must fit their
// windows, use accessible resources, and respect slot capacities, and
// Profit must be the exact sum of the assigned jobs' profits.
func VerifyLine(in *LineInstance, res *Result) error {
	m, err := in.build()
	if err != nil {
		return err
	}
	seen := make(map[int]bool, len(res.Assignments))
	usage := make(map[model.EdgeKey]float64)
	var profit dual.Sum
	for _, a := range res.Assignments {
		if a.Demand < 0 || a.Demand >= len(m.Demands) {
			return fmt.Errorf("treesched: assignment references unknown job %d", a.Demand)
		}
		if seen[a.Demand] {
			return fmt.Errorf("treesched: job %d assigned twice", a.Demand)
		}
		seen[a.Demand] = true
		d := m.Demands[a.Demand]
		if a.Start < d.Release || a.Start+d.Proc-1 > d.Deadline {
			return fmt.Errorf("treesched: job %d scheduled at %d outside window [%d,%d]",
				a.Demand, a.Start, d.Release, d.Deadline)
		}
		accessible := false
		for _, q := range d.Access {
			if q == a.Network {
				accessible = true
				break
			}
		}
		if !accessible {
			return fmt.Errorf("treesched: job %d assigned to inaccessible resource %d", a.Demand, a.Network)
		}
		for s := a.Start; s <= a.Start+d.Proc-1; s++ {
			k := model.MakeEdgeKey(a.Network, s)
			usage[k] += d.Height
			if usage[k] > 1+dual.Tolerance {
				return fmt.Errorf("treesched: slot %v over capacity (%.9f)", k, usage[k])
			}
		}
		profit.Add(d.Profit)
	}
	return checkProfit(res, &profit)
}

// checkProfit compares res.Profit bit for bit with the rounded sum of the
// assigned demands' profits.
func checkProfit(res *Result, sum *dual.Sum) error {
	if want := sum.Round(); math.Float64bits(res.Profit) != math.Float64bits(want) {
		return fmt.Errorf("treesched: profit %v is not the assigned demands' profit %v", res.Profit, want)
	}
	return nil
}
