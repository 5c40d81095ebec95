package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomTree builds a random tree on n vertices by attaching each vertex to a
// uniformly random earlier vertex, then relabeling with a random permutation
// so the root is not structurally special.
func randomTree(n int, rng *rand.Rand) *Tree {
	perm := rng.Perm(n)
	edges := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, Edge{U: perm[u], V: perm[v]})
	}
	return MustTree(n, edges)
}

// fig6Tree is the example tree-network of Figure 6 of the paper: 15 vertices
// labeled 1..15 in the paper, 0..14 here (paper vertex k = our k-1).
//
// Paper edges (1-indexed), reconstructed from the worked examples in §4.1,
// §4.4 and Appendix A: 1-2, 2-4, 2-5, 5-8, 5-9, 8-13, 9-12, 1-6, 6-10, 6-11,
// 1-14, 14-3, 3-7, 14-15. These make every quoted fact hold: path(4,13) =
// 4-2-5-8-13, Γ[{2,4}] = {1,5}, Γ[C(5)] = {1} for C(5) = {5,9,8,2,12,13,4},
// bending points of <4,13> w.r.t. 3 and 9 are 2 and 5, and rooting at 1
// captures <4,13> at node 2 with π = {<2,4>, <2,5>}.
func fig6Tree(t *testing.T) *Tree {
	t.Helper()
	return MustTree(15, Fig6Edges())
}

// Fig6Edges returns the 0-indexed edges of the paper's Figure 6 tree; shared
// with other packages' tests via the exported helper in export_test-like
// fashion (duplicated where needed since this is a _test file).
func Fig6Edges() []Edge {
	return []Edge{
		{0, 1}, {1, 3}, {1, 4}, {4, 7}, {4, 8}, {7, 12}, {8, 11},
		{0, 5}, {5, 9}, {5, 10}, {0, 13}, {13, 2}, {2, 6}, {13, 14},
	}
}

// TestNewTreeValidation pins the error of every invalid input, the text
// included.
func TestNewTreeValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
		want  string
	}{
		{"zero vertices", 0, nil, "graph: tree must have at least one vertex, got 0"},
		{"negative vertices", -3, nil, "graph: tree must have at least one vertex, got -3"},
		{"wrong edge count", 3, []Edge{{0, 1}}, "graph: tree over 3 vertices needs 2 edges, got 1"},
		{"too many edges", 2, []Edge{{0, 1}, {1, 0}}, "graph: tree over 2 vertices needs 1 edges, got 2"},
		{"self loop", 2, []Edge{{0, 0}}, "graph: self-loop at vertex 0"},
		{"out of range", 2, []Edge{{0, 5}}, "graph: edge (0,5) out of range [0,2)"},
		{"negative vertex", 2, []Edge{{-1, 0}}, "graph: edge (-1,0) out of range [0,2)"},
		{"range before self loop", 3, []Edge{{0, 1}, {3, 3}}, "graph: edge (3,3) out of range [0,3)"},
		{"first bad edge", 3, []Edge{{2, 2}, {0, 9}}, "graph: self-loop at vertex 2"},
		{"disconnected cycle plus isolated", 4, []Edge{{0, 1}, {1, 2}, {2, 0}}, "graph: tree is not connected"},
		{"two components", 4, []Edge{{0, 1}, {2, 3}, {0, 1}}, "graph: tree is not connected"},
		{"duplicate edge", 3, []Edge{{1, 2}, {2, 1}}, "graph: tree is not connected"},
		// Past 2^30 vertices NewTree's int32 scratch would overflow; it
		// refuses before allocating anything.
		{"vertex limit", maxVertices + 1, nil, "graph: tree over 1073741824 vertices exceeds the limit of 1073741823"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTree(tc.n, tc.edges)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("NewTree(%d, %v) = %v, want %q", tc.n, tc.edges, err, tc.want)
			}
		})
	}
}

func TestSingleVertexTree(t *testing.T) {
	tr, err := NewTree(1, nil)
	if err != nil {
		t.Fatalf("NewTree(1): %v", err)
	}
	if tr.N() != 1 || tr.Depth(0) != 0 || tr.Parent(0) != -1 {
		t.Errorf("unexpected single-vertex tree state")
	}
	if got := tr.PathEdges(0, 0); len(got) != 0 {
		t.Errorf("PathEdges(0,0) = %v, want empty", got)
	}
}

func TestPathEdgesOnLine(t *testing.T) {
	tr, err := NewPath(6)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		u, v Vertex
		want []EdgeID
	}{
		{0, 5, []EdgeID{1, 2, 3, 4, 5}},
		{5, 0, []EdgeID{5, 4, 3, 2, 1}},
		{2, 4, []EdgeID{3, 4}},
		{3, 3, nil},
		{1, 2, []EdgeID{2}},
	}
	for _, tc := range tests {
		got := tr.PathEdges(tc.u, tc.v)
		if !reflect.DeepEqual(got, tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("PathEdges(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestFig6PathsAndLCA(t *testing.T) {
	tr := fig6Tree(t)
	// Paper (§4.4): demand <4,13> passes through nodes 2 and 8; our labels:
	// demand <3,12> passes through 1 and 7. Its path is 3-1-4-7-12.
	path := tr.PathVertices(3, 12)
	want := []Vertex{3, 1, 4, 7, 12}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("PathVertices(3,12) = %v, want %v", path, want)
	}
	// LCA with respect to root 0 (paper's root-fixing example roots at 1,
	// which is our 0): the paper says <4,13> is captured at node 2 (our 1).
	if got := tr.LCA(3, 12); got != 1 {
		t.Errorf("LCA(3,12) = %d, want 1", got)
	}
	if got := tr.LCA(9, 10); got != 5 {
		t.Errorf("LCA(9,10) = %d, want 5", got)
	}
	if !tr.OnPath(4, 3, 12) {
		t.Errorf("OnPath(4; 3,12) = false, want true")
	}
	if tr.OnPath(8, 3, 12) {
		t.Errorf("OnPath(8; 3,12) = true, want false")
	}
}

func TestMedian(t *testing.T) {
	tr := fig6Tree(t)
	tests := []struct {
		a, b, c, want Vertex
	}{
		{3, 12, 11, 4}, // three branches meeting at vertex 4
		{9, 10, 0, 5},  // two leaves under 5 and the root
		{3, 3, 12, 3},  // degenerate: duplicated vertex
		{6, 14, 0, 13}, // branches under 13
	}
	for _, tc := range tests {
		if got := tr.Median(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("Median(%d,%d,%d) = %d, want %d", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestEdgeBetween(t *testing.T) {
	tr := fig6Tree(t)
	if id, ok := tr.EdgeBetween(4, 1); !ok || id != 4 {
		t.Errorf("EdgeBetween(4,1) = %d,%v; want 4,true", id, ok)
	}
	if id, ok := tr.EdgeBetween(1, 4); !ok || id != 4 {
		t.Errorf("EdgeBetween(1,4) = %d,%v; want 4,true", id, ok)
	}
	if _, ok := tr.EdgeBetween(3, 12); ok {
		t.Errorf("EdgeBetween(3,12) = ok, want not adjacent")
	}
}

// lcaBrute computes the LCA by walking parent pointers.
func lcaBrute(tr *Tree, u, v Vertex) Vertex {
	anc := map[Vertex]bool{}
	for x := u; x != -1; x = tr.Parent(x) {
		anc[x] = true
	}
	for x := v; ; x = tr.Parent(x) {
		if anc[x] {
			return x
		}
	}
}

func TestLCAMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		tr := randomTree(n, rng)
		for q := 0; q < 50; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got, want := tr.LCA(u, v), lcaBrute(tr, u, v); got != want {
				t.Fatalf("n=%d LCA(%d,%d) = %d, want %d", n, u, v, got, want)
			}
		}
	}
}

func TestPathEdgesProperty(t *testing.T) {
	// Property: PathEdges(u,v) has length Dist(u,v), consecutive edges share
	// endpoints, the walk starts at u and ends at v, and no edge repeats.
	rng := rand.New(rand.NewSource(11))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(80)
		tr := randomTree(n, rng)
		u, v := r.Intn(n), r.Intn(n)
		edges := tr.PathEdges(u, v)
		if len(edges) != tr.Dist(u, v) {
			return false
		}
		seenEdge := map[EdgeID]bool{}
		cur := u
		for _, id := range edges {
			if seenEdge[id] {
				return false
			}
			seenEdge[id] = true
			a, b := tr.EdgeEndpoints(id)
			switch cur {
			case a:
				cur = b
			case b:
				cur = a
			default:
				return false
			}
		}
		return cur == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPathVerticesConsistentWithEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(50)
		tr := randomTree(n, rng)
		u, v := rng.Intn(n), rng.Intn(n)
		vs := tr.PathVertices(u, v)
		es := tr.PathEdges(u, v)
		if len(vs) != len(es)+1 {
			t.Fatalf("n=%d path(%d,%d): %d vertices vs %d edges", n, u, v, len(vs), len(es))
		}
		if vs[0] != u || vs[len(vs)-1] != v {
			t.Fatalf("path endpoints %v do not match (%d,%d)", vs, u, v)
		}
		for i, id := range es {
			if wantID, ok := tr.EdgeBetween(vs[i], vs[i+1]); !ok || wantID != id {
				t.Fatalf("edge %d of path(%d,%d) = %d, want %d", i, u, v, id, wantID)
			}
		}
	}
}

func TestDepthParentInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(100)
		tr := randomTree(n, rng)
		for v := 0; v < n; v++ {
			if v == 0 {
				if tr.Parent(v) != -1 || tr.Depth(v) != 0 {
					t.Fatalf("root invariants violated: parent=%d depth=%d", tr.Parent(v), tr.Depth(v))
				}
				continue
			}
			p := tr.Parent(v)
			if p < 0 || p >= n {
				t.Fatalf("parent(%d) = %d out of range", v, p)
			}
			if tr.Depth(v) != tr.Depth(p)+1 {
				t.Fatalf("depth(%d)=%d, parent depth %d", v, tr.Depth(v), tr.Depth(p))
			}
		}
	}
}
