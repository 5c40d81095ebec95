package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/seq"
	"treesched/internal/workload"
)

// TestLineReducesToPathTree cross-validates the two problem formulations via
// the paper's §1/§7 observation: a timeline of n slots is the path-network
// on n+1 vertices, with slot s the edge between vertices s-1 and s. For
// windowless line instances, the exact optimum computed over line items must
// equal the exact optimum over the corresponding path-tree items.
func TestLineReducesToPathTree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1300 + seed))
		lin, err := workload.RandomLineInstance(workload.LineConfig{
			Slots: 16, Resources: 2, Demands: 7, ProfitRatio: 8,
			ProcMin: 1, ProcMax: 6, WindowSlack: 0,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}

		// Build the equivalent tree instance: path on Slots+1 vertices;
		// a job occupying slots [s, e] is the demand <s-1, e>.
		tin := &model.Instance{NumVertices: lin.NumSlots + 1}
		for q := 0; q < lin.NumResources; q++ {
			p, err := graph.NewPath(lin.NumSlots + 1)
			if err != nil {
				t.Fatal(err)
			}
			tin.Trees = append(tin.Trees, p)
		}
		for _, d := range lin.Demands {
			tin.Demands = append(tin.Demands, model.Demand{
				ID: d.ID, U: d.Release - 1, V: d.Release + d.Proc - 1,
				Profit: d.Profit, Height: d.Height, Access: d.Access,
			})
		}
		if err := tin.Validate(); err != nil {
			t.Fatal(err)
		}

		lineItems, err := engine.BuildLineItems(lin)
		if err != nil {
			t.Fatal(err)
		}
		treeItems, err := engine.BuildTreeItems(tin, engine.IdealDecomp)
		if err != nil {
			t.Fatal(err)
		}
		if len(lineItems) != len(treeItems) {
			t.Fatalf("seed %d: %d line items vs %d tree items", seed, len(lineItems), len(treeItems))
		}
		lineOpt, _ := seq.Brute(lineItems, true)
		treeOpt, _ := seq.Brute(treeItems, true)
		if math.Abs(lineOpt-treeOpt) > 1e-9 {
			t.Fatalf("seed %d: line optimum %v != path-tree optimum %v", seed, lineOpt, treeOpt)
		}

		// Both formulations' algorithms stay within their guarantees on
		// the shared optimum.
		lres, err := engine.Prepare(lineItems).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tres, err := engine.Prepare(treeItems).Solve(engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lres.Profit*4/0.9 < lineOpt-1e-9 {
			t.Fatalf("seed %d: line algorithm ratio %v exceeds 4+ε", seed, lineOpt/lres.Profit)
		}
		if tres.Profit*7/0.9 < treeOpt-1e-9 {
			t.Fatalf("seed %d: tree algorithm ratio %v exceeds 7+ε", seed, treeOpt/tres.Profit)
		}
	}
}
