package engine

import (
	"math/rand"
	"reflect"
	"slices"
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
// so no append reaches a neighbour. It checks the items Prepare interns
// and the fused PrepareDemands, in fresh storage and in an arena.
func TestArenaSlicesDoNotAlias(t *testing.T) {
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 40, Trees: 2, Demands: 30, ProfitRatio: 4, AccessMin: 1, AccessMax: 2,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	layered := layeredFor(t, in, IdealDecomp)
	items, err := BuildTreeItemsLayered(in, layered)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Prepared
	}{
		{"Prepare", Prepare(items)},
		{"PrepareDemands", PrepareDemands(in.Demands, layered, nil, nil)},
		{"PrepareDemands/arena", PrepareDemands(in.Demands, layered, nil, new(Arena))},
	} {
		name, items, lay := tc.name, tc.p.items, tc.p.lay
		want := cloneItems(items)
		wantViews := cloneViews(lay.views)
		for i := range items {
			_ = append(items[i].Edges, -1)
			_ = append(items[i].Critical, -1)
			_ = append(lay.views[i].Edges, -1)
			_ = append(lay.views[i].Critical, -1)
		}
		if !reflect.DeepEqual(items, want) {
			t.Fatalf("%s: an append to one item's slices changed another item", name)
		}
		if !reflect.DeepEqual(lay.views, wantViews) {
			t.Fatalf("%s: an append to one view's index lists changed another list", name)
		}
	}
}

// layeredFor returns the layered decomposition of every tree of in.
func layeredFor(t testing.TB, in *model.Instance, kind DecompKind) []*decomp.Layered {
	t.Helper()
	layered := make([]*decomp.Layered, len(in.Trees))
	for q, tr := range in.Trees {
		l, err := LayeredForTree(tr, kind)
		if err != nil {
			t.Fatal(err)
		}
		layered[q] = l
	}
	return layered
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
// across the seeds, as a Solver's pooled arenas are, through Prepare over
// built items and through the fused PrepareDemands.
func TestColdLayoutIsUnhashed(t *testing.T) {
	a := new(Arena)
	for seed := int64(1); seed <= 5; seed++ {
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 256, Trees: 3, Demands: 384, ProfitRatio: 16, AccessMin: 1, AccessMax: 3,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		layered := layeredFor(t, in, IdealDecomp)
		items, err := BuildTreeItemsLayered(in, layered)
		if err != nil {
			t.Fatal(err)
		}
		for _, lay := range []*layout{
			Prepare(items).lay,
			PrepareRecorded(items, nil, a).lay,
			PrepareDemands(in.Demands, layered, nil, nil).lay,
			PrepareDemands(in.Demands, layered, nil, a).lay,
		} {
			if lay.ix.Hashed() {
				t.Fatalf("seed %d: cold layout hashed", seed)
			}
			if lay.ix.NumDemands() != len(in.Demands) || len(lay.demandIDs) != len(in.Demands) {
				t.Fatalf("seed %d: %d demand slots and %d stream ids for %d demands", seed, lay.ix.NumDemands(), len(lay.demandIDs), len(in.Demands))
			}
		}
	}

	// Line items and the height classes of a mixed-height instance arrive
	// built, and layout.build budgets their edge tables by path entries
	// alone; their keys still fit the tables. A class's demand ids are a
	// subset of the instance's, so its demand side maps: each class is
	// prepared with its demands renumbered densely, which leaves only the
	// edge side able to hash.
	for seed := int64(1); seed <= 5; seed++ {
		for _, cfg := range []workload.LineConfig{
			{Slots: 256, Resources: 3, Demands: 384, ProfitRatio: 16, WindowSlack: 4, AccessMin: 1, AccessMax: 3},
			{Slots: 256, Resources: 3, Demands: 384, ProfitRatio: 16, ProcMax: 3, AccessMin: 1, AccessMax: 3},
		} {
			ln, err := workload.RandomLineInstance(cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			items, err := BuildLineItems(ln)
			if err != nil {
				t.Fatal(err)
			}
			if Prepare(items).lay.ix.Hashed() {
				t.Fatalf("seed %d: line layout (jobs of at most %d slots) hashed", seed, cfg.ProcMax)
			}
		}
		in, err := workload.RandomTreeInstance(workload.TreeConfig{
			Vertices: 256, Trees: 3, Demands: 384, ProfitRatio: 16, Heights: workload.MixedHeights, AccessMin: 1, AccessMax: 3,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		items, err := BuildTreeItemsLayered(in, layeredFor(t, in, IdealDecomp))
		if err != nil {
			t.Fatal(err)
		}
		classes := 0
		_, _, err = SolveHeightClasses(items, Config{Epsilon: 0.15, Seed: seed}, func(class []Item, _ Config) ([]int, error) {
			dense := slices.Clone(class)
			for i := range dense {
				dense[i].Demand = 0
				if i > 0 {
					dense[i].Demand = dense[i-1].Demand
					if class[i].Demand != class[i-1].Demand {
						dense[i].Demand++
					}
				}
			}
			if Prepare(dense).lay.ix.Hashed() {
				t.Errorf("seed %d: layout of a height class of %d items hashed", seed, len(class))
			}
			classes++
			return nil, nil
		})
		if err != nil || classes != 2 {
			t.Fatalf("seed %d: %d height classes, error %v; want 2", seed, classes, err)
		}
	}
}

// checkPrepareDemands requires the fused PrepareDemands to equal
// Prepare(DemandItems(...)) over the same demands — the same items and
// views, each slice capped at its length, the same index (key order,
// demand slots and ids, extents, and whether a side hashes) and the same
// plan statistics — in fresh storage and in a, which may hold an earlier
// preparation. It returns the reference.
func checkPrepareDemands(t testing.TB, demands []model.Demand, layered []*decomp.Layered, a *Arena) *Prepared {
	t.Helper()
	want := Prepare(DemandItems(demands, layered, nil))
	for _, got := range []*Prepared{PrepareDemands(demands, layered, nil, nil), PrepareDemands(demands, layered, nil, a)} {
		if !reflect.DeepEqual(got.items, want.items) {
			t.Fatalf("items differ:\n got %+v\nwant %+v", got.items, want.items)
		}
		if !reflect.DeepEqual(got.lay.views, want.lay.views) {
			t.Fatalf("views differ:\n got %+v\nwant %+v", got.lay.views, want.lay.views)
		}
		for i, v := range got.lay.views {
			it := &got.items[i]
			if cap(it.Edges) != len(it.Edges) || cap(it.Critical) != len(it.Critical) ||
				cap(v.Edges) != len(v.Edges) || cap(v.Critical) != len(v.Critical) {
				t.Fatalf("item %d or its view has spare capacity", i)
			}
		}
		g, w := got.lay, want.lay
		if g.demands != w.demands || g.edges != w.edges || !slices.Equal(g.demandIDs, w.demandIDs) {
			t.Fatalf("index extents %d/%d, demand ids %v; want %d/%d, %v", g.demands, g.edges, g.demandIDs, w.demands, w.edges, w.demandIDs)
		}
		for i := range int32(w.edges) {
			if g.ix.EdgeKey(i) != w.ix.EdgeKey(i) {
				t.Fatalf("edge index %d holds %v, want %v", i, g.ix.EdgeKey(i), w.ix.EdgeKey(i))
			}
		}
		if g.ix.Hashed() != w.ix.Hashed() {
			t.Fatalf("index hashed %v, want %v", g.ix.Hashed(), w.ix.Hashed())
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("plan statistics %+v, want %+v", got.stats, want.stats)
		}
	}
	return want
}

// TestPrepareDemandsMatchesPrepare checks the fused preparation against
// the two passes it fuses, in one arena reused across every case: access
// lists of 1 to 3 networks under each decomposition kind, demand ids that
// are not slot numbers (so the demand side is a map), and a few short
// demands on a large tree, whose edge tables would outgrow their budget,
// so the edge side falls back to the map.
func TestPrepareDemandsMatchesPrepare(t *testing.T) {
	a := new(Arena)
	for _, kind := range []DecompKind{IdealDecomp, BalancingDecomp, RootFixingDecomp} {
		for seed := int64(1); seed <= 4; seed++ {
			in, err := workload.RandomTreeInstance(workload.TreeConfig{
				Vertices: 10 + 30*int(seed), Trees: 3, Demands: 50, ProfitRatio: 8, AccessMin: 1, AccessMax: 3,
			}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			layered := layeredFor(t, in, kind)
			if checkPrepareDemands(t, in.Demands, layered, a).lay.ix.Hashed() {
				t.Fatalf("%v seed %d: the reference hashed", kind, seed)
			}
			sparse := slices.Clone(in.Demands)
			for i := range sparse {
				sparse[i].ID = 7 + 3*i
			}
			if !checkPrepareDemands(t, sparse, layered, a).lay.ix.Hashed() {
				t.Fatalf("%v seed %d: sparse demand ids did not hash", kind, seed)
			}
		}
	}
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 4000, Trees: 2, Demands: 3, ProfitRatio: 8, AccessMin: 1, AccessMax: 2, MaxDist: 3,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !checkPrepareDemands(t, in.Demands, layeredFor(t, in, IdealDecomp), a).lay.ix.Hashed() {
		t.Fatal("the sparse instance's edge tables did not fall back to the map")
	}
}

// FuzzPrepareDemands pins the fused preparation to Prepare(DemandItems(...))
// over random trees of up to 300 vertices, 1 to 3 networks with access
// lists of 1 up to every network, every decomposition kind, and demand ids
// that are slot numbers or not. Its arena first prepares another demand
// set, so stale storage is exercised too.
func FuzzPrepareDemands(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(20), uint8(3), uint8(0), false)
	f.Add(int64(2), uint8(250), uint8(3), uint8(2), uint8(1), true)
	f.Add(int64(3), uint8(12), uint8(30), uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, nv, nd, nt, kind uint8, sparse bool) {
		cfg := workload.TreeConfig{
			Vertices: int(nv)%300 + 2, Trees: int(nt)%3 + 1, Demands: int(nd)%40 + 1, ProfitRatio: 8, AccessMin: 1,
		}
		cfg.AccessMax = cfg.Trees
		rng := rand.New(rand.NewSource(seed))
		in, err := workload.RandomTreeInstance(cfg, rng)
		if err != nil {
			t.Skip(err)
		}
		layered := layeredFor(t, in, DecompKind(int(kind)%3))
		demands := in.Demands
		if sparse {
			demands = slices.Clone(demands)
			for i := range demands {
				demands[i].ID = 1 + 2*i + rng.Intn(2)
			}
		}
		a := new(Arena)
		PrepareDemands(in.Demands[len(in.Demands)/2:], layered, nil, a)
		checkPrepareDemands(t, demands, layered, a)
	})
}
