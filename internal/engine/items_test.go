package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/decomp"
	"treesched/internal/decomp/decomptest"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// oracleTreeItems builds items the long way: Instance.Expand for paths and
// the map-based decomptest.Assign for groups and critical sets.
func oracleTreeItems(in *model.Instance, layered []*decomp.Layered) []Item {
	var items []Item
	for _, di := range in.Expand() {
		group, crit := decomptest.Assign(layered[di.Tree], di.U, di.V)
		critical := make([]model.EdgeKey, len(crit))
		for j, e := range crit {
			critical[j] = model.MakeEdgeKey(di.Tree, e)
		}
		items = append(items, Item{
			ID: di.ID, Demand: di.Demand, Resource: di.Tree, Group: group,
			Profit: di.Profit, Height: di.Height, Edges: di.Path, Critical: critical,
		})
	}
	return items
}

func TestBuildTreeItemsMatchesExpandOracle(t *testing.T) {
	for _, kind := range []DecompKind{IdealDecomp, BalancingDecomp, RootFixingDecomp} {
		for seed := int64(1); seed <= 6; seed++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: 10 + 20*int(seed), Trees: 3, Demands: 40, ProfitRatio: 8, AccessMin: 1, AccessMax: 3,
			}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			layered := make([]*decomp.Layered, len(in.Trees))
			for q, tr := range in.Trees {
				if layered[q], err = LayeredForTree(tr, kind); err != nil {
					t.Fatal(err)
				}
			}
			got, err := BuildTreeItemsLayered(in, layered)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleTreeItems(in, layered)
			if len(got) != len(want) {
				t.Fatalf("%v seed %d: %d items, oracle %d", kind, seed, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%v seed %d: item %d\n got %+v\nwant %+v", kind, seed, i, got[i], want[i])
				}
				if cap(got[i].Edges) != len(got[i].Edges) || cap(got[i].Critical) != len(got[i].Critical) {
					t.Fatalf("%v seed %d: item %d slices have spare capacity", kind, seed, i)
				}
			}
		}
	}
}

// TestArenaSlicesDoNotAlias appends to every item's and every view's slices
// in turn; the arenas and the layout slab must hand each a capped window,
// so no append reaches a neighbour.
func TestArenaSlicesDoNotAlias(t *testing.T) {
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 40, Trees: 2, Demands: 30, ProfitRatio: 4, AccessMin: 1, AccessMax: 2,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	items, err := BuildTreeItems(in, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	lay := Prepare(items).lay
	want := cloneItems(items)
	wantViews := cloneViews(lay.views)
	for i := range items {
		_ = append(items[i].Edges, -1)
		_ = append(items[i].Critical, -1)
		_ = append(lay.views[i].Edges, -1)
		_ = append(lay.views[i].Critical, -1)
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatal("an append to one item's slices changed another item")
	}
	if !reflect.DeepEqual(lay.views, wantViews) {
		t.Fatal("an append to one view's index lists changed another list")
	}
}

func cloneItems(items []Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		it.Edges = append([]model.EdgeKey(nil), it.Edges...)
		it.Critical = append([]model.EdgeKey(nil), it.Critical...)
		out[i] = it
	}
	return out
}

func cloneViews(views []ItemView) []ItemView {
	out := make([]ItemView, len(views))
	for i, v := range views {
		v.Edges = append([]int32(nil), v.Edges...)
		v.Critical = append([]int32(nil), v.Critical...)
		out[i] = v
	}
	return out
}

// TestColdLayoutIsUnhashed: a cold build at solve-contended's shape (384
// demands on three 256-vertex trees, access 1–3) interns through the
// per-network edge tables and identity demand slots alone — no side of its
// index converts to a map — in fresh storage and in one arena reused
// across the seeds, as a Solver's pooled arenas are.
func TestColdLayoutIsUnhashed(t *testing.T) {
	a := new(Arena)
	for seed := int64(1); seed <= 5; seed++ {
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 256, Trees: 3, Demands: 384, ProfitRatio: 16, AccessMin: 1, AccessMax: 3,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		items, err := BuildTreeItems(in, IdealDecomp)
		if err != nil {
			t.Fatal(err)
		}
		for _, lay := range []*layout{Prepare(items).lay, PrepareRecorded(items, nil, a).lay} {
			if lay.ix.Hashed() {
				t.Fatalf("seed %d: cold layout hashed", seed)
			}
			if lay.ix.NumDemands() != len(in.Demands) || len(lay.demandIDs) != len(in.Demands) {
				t.Fatalf("seed %d: %d demand slots and %d stream ids for %d demands", seed, lay.ix.NumDemands(), len(lay.demandIDs), len(in.Demands))
			}
		}
	}
}
