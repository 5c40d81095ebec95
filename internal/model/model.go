// Package model defines the throughput-maximization problem of the paper:
// demands over a shared vertex set, tree-networks, accessibility sets, and
// the demand-instance reformulation of §2 (one instance per accessible
// network). It also implements the line-network-with-windows variant of §7,
// whose instances additionally range over execution start times.
package model

import (
	"fmt"
	"math"
	"slices"

	"treesched/internal/graph"
)

// TreeID identifies a tree-network (or a line resource) within an instance.
type TreeID = int

// DemandID identifies a demand; the processor owning it has the same index.
type DemandID = int

// InstanceID identifies a demand instance within the expanded set D.
type InstanceID = int

// EdgeKey identifies an edge globally across all networks of an instance:
// the network id in the high 32 bits, the within-tree EdgeID in the low 32.
type EdgeKey int64

// MakeEdgeKey packs a network id and an edge id.
func MakeEdgeKey(tree TreeID, edge graph.EdgeID) EdgeKey {
	return EdgeKey(int64(tree)<<32 | int64(uint32(edge)))
}

// Tree returns the network id of the key.
func (k EdgeKey) Tree() TreeID { return TreeID(int64(k) >> 32) }

// Edge returns the within-tree edge id of the key.
func (k EdgeKey) Edge() graph.EdgeID { return graph.EdgeID(uint32(int64(k))) }

func (k EdgeKey) String() string {
	return fmt.Sprintf("T%d/e%d", k.Tree(), k.Edge())
}

// Demand is a request to route between two vertices (§2). Height is the
// bandwidth requirement in (0,1]; 1 for the unit-height case. Access lists
// the networks the owning processor can use.
type Demand struct {
	ID     DemandID
	U, V   graph.Vertex
	Profit float64
	Height float64
	Access []TreeID
}

// Wide reports whether the demand is a wide instance source (§6): h > 1/2.
// Unit-height demands are wide.
func (d Demand) Wide() bool { return d.Height > 0.5 }

// Instance is a complete tree-network problem instance.
type Instance struct {
	NumVertices int
	Trees       []*graph.Tree
	Demands     []Demand
}

// Validate checks structural invariants: consistent IDs, endpoints and
// accessibility in range, heights in (0,1], positive profits.
func (in *Instance) Validate() error {
	if in.NumVertices <= 0 {
		return fmt.Errorf("model: instance needs at least one vertex")
	}
	for q, t := range in.Trees {
		if t.N() != in.NumVertices {
			return fmt.Errorf("model: tree %d has %d vertices, instance has %d", q, t.N(), in.NumVertices)
		}
	}
	for i, d := range in.Demands {
		if d.ID != i {
			return fmt.Errorf("model: demand %d has ID %d", i, d.ID)
		}
		if err := ValidateDemand(d, in.NumVertices, len(in.Trees)); err != nil {
			return err
		}
	}
	return nil
}

// ValidateDemand checks one demand's acceptance rules against a vertex and
// network universe: endpoints in range and distinct, finite positive
// profit, height in (0,1], and a non-empty duplicate-free accessibility set
// of known networks. Instance.Validate applies it to every demand; the root
// package's incremental Session applies it to arrivals, so the two paths
// cannot drift.
func ValidateDemand(d Demand, numVertices, numTrees int) error {
	if d.U < 0 || d.U >= numVertices || d.V < 0 || d.V >= numVertices {
		return fmt.Errorf("model: demand %d endpoints (%d,%d) out of range", d.ID, d.U, d.V)
	}
	if d.U == d.V {
		return fmt.Errorf("model: demand %d has equal endpoints %d", d.ID, d.U)
	}
	if !(d.Profit > 0) || math.IsInf(d.Profit, 0) {
		return fmt.Errorf("model: demand %d has invalid profit %v", d.ID, d.Profit)
	}
	if !(d.Height > 0) || d.Height > 1 {
		return fmt.Errorf("model: demand %d has invalid height %v", d.ID, d.Height)
	}
	return validateAccess("demand", d.ID, d.Access, numTrees, "network")
}

// validateAccess checks a demand's access list: non-empty, every entry in
// [0, n), none listed twice. kind and unit name the demand and what it
// accesses in the error ("demand" and "network", or "line demand" and
// "resource").
func validateAccess(kind string, id int, access []TreeID, n int, unit string) error {
	if len(access) == 0 {
		return fmt.Errorf("model: %s %d has no accessible %ss", kind, id, unit)
	}
	// An entry above every earlier one cannot repeat one, so an ascending
	// list is checked in one pass; only an entry at or below the running
	// maximum is looked for among the earlier entries.
	top := -1
	for j, q := range access {
		if q < 0 || q >= n {
			return fmt.Errorf("model: %s %d accesses unknown %s %d", kind, id, unit, q)
		}
		if q > top {
			top = q
		} else if slices.Contains(access[:j], q) {
			return fmt.Errorf("model: %s %d lists %s %d twice", kind, id, unit, q)
		}
	}
	return nil
}

// ProfitRange returns (pmin, pmax) over all demands; (0,0) if none.
func (in *Instance) ProfitRange() (pmin, pmax float64) {
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

// MinHeight returns the minimum demand height (hmin); 1 if there are no
// demands.
func (in *Instance) MinHeight() float64 {
	h := 1.0
	for _, d := range in.Demands {
		if d.Height < h {
			h = d.Height
		}
	}
	return h
}

// DemandInstance is a copy of a demand on one accessible network (§2). Its
// path in the network is fixed (trees have unique paths).
type DemandInstance struct {
	ID     InstanceID
	Demand DemandID
	Tree   TreeID
	U, V   graph.Vertex
	Profit float64
	Height float64
	Path   []EdgeKey
}

// Expand builds the demand-instance set D of §2: one instance per
// (demand, accessible network) pair, in deterministic order (by demand, then
// by the order networks appear in Access).
func (in *Instance) Expand() []DemandInstance {
	var out []DemandInstance
	for _, d := range in.Demands {
		for _, q := range d.Access {
			edges := in.Trees[q].PathEdges(d.U, d.V)
			path := make([]EdgeKey, len(edges))
			for j, e := range edges {
				path[j] = MakeEdgeKey(q, e)
			}
			out = append(out, DemandInstance{
				ID:     len(out),
				Demand: d.ID,
				Tree:   q,
				U:      d.U,
				V:      d.V,
				Profit: d.Profit,
				Height: d.Height,
				Path:   path,
			})
		}
	}
	return out
}

// Overlapping reports whether two demand instances belong to the same
// network and share an edge (§2).
func Overlapping(a, b *DemandInstance) bool {
	if a.Tree != b.Tree {
		return false
	}
	set := make(map[EdgeKey]struct{}, len(a.Path))
	for _, e := range a.Path {
		set[e] = struct{}{}
	}
	for _, e := range b.Path {
		if _, ok := set[e]; ok {
			return true
		}
	}
	return false
}

// Conflicting reports whether two distinct demand instances conflict (§2):
// they belong to the same demand, or they overlap. An instance never
// conflicts with itself.
func Conflicting(a, b *DemandInstance) bool {
	if a.ID == b.ID {
		return false
	}
	if a.Demand == b.Demand {
		return true
	}
	return Overlapping(a, b)
}
