package model

import (
	"math/rand"
	"testing"
)

func TestEdgeInternerAssignsDenseIndices(t *testing.T) {
	in := NewEdgeInterner()
	a := MakeEdgeKey(2, 7)
	b := MakeEdgeKey(0, 7)
	c := MakeEdgeKey(2, 9)
	if i := in.Intern(a); i != 0 {
		t.Fatalf("first key got index %d, want 0", i)
	}
	if i := in.Intern(b); i != 1 {
		t.Fatalf("second key got index %d, want 1", i)
	}
	if i := in.Intern(a); i != 0 {
		t.Fatalf("re-interning returned %d, want stable 0", i)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	if got, ok := in.Lookup(c); ok {
		t.Fatalf("Lookup of un-interned key returned (%d, true)", got)
	}
	if k := in.Key(1); k != b {
		t.Errorf("Key(1) = %v, want %v", k, b)
	}
	if keys := in.Keys(); len(keys) != 2 || keys[0] != a || keys[1] != b {
		t.Errorf("Keys() = %v, want [%v %v]", keys, a, b)
	}
}

func TestEdgeInternerInternPath(t *testing.T) {
	in := NewEdgeInterner()
	path := []EdgeKey{MakeEdgeKey(1, 3), MakeEdgeKey(1, 4), MakeEdgeKey(1, 3)}
	idx := in.InternPath(path)
	if len(idx) != 3 {
		t.Fatalf("index list length %d, want 3", len(idx))
	}
	if idx[0] != idx[2] {
		t.Errorf("repeated key got distinct indices %d and %d", idx[0], idx[2])
	}
	if idx[0] == idx[1] {
		t.Errorf("distinct keys share index %d", idx[0])
	}
	for j, k := range path {
		if in.Key(idx[j]) != k {
			t.Errorf("position %d: Key(%d) = %v, want %v", j, idx[j], in.Key(idx[j]), k)
		}
	}
}

// TestEdgeInternerBudget: an interner sized for a handful of path entries
// tables small edge ids, then converts to the map at edge ids near 2²⁰ —
// far past its budget — keeping every index and every lookup.
func TestEdgeInternerBudget(t *testing.T) {
	const entries = 6
	in := NewEdgeInternerSized(entries)
	var keys []EdgeKey
	for _, e := range []int{3, 1, 2} {
		keys = append(keys, MakeEdgeKey(0, e))
		in.Intern(keys[len(keys)-1])
	}
	if !in.Tabled() || in.cells > tableCellsPerEntry*entries {
		t.Fatalf("small edge ids: tabled %v with %d cells, want tables within %d", in.Tabled(), in.cells, tableCellsPerEntry*entries)
	}
	for _, e := range []int{1<<20 - 1, 1 << 20, 1<<20 + 7} {
		keys = append(keys, MakeEdgeKey(1, e), MakeEdgeKey(0, e))
		in.Intern(keys[len(keys)-2])
		in.Intern(keys[len(keys)-1])
	}
	if in.Tabled() || in.idx == nil || in.tables != nil {
		t.Fatal("edge ids near 2^20 should have converted the interner to the map")
	}
	for i, k := range keys {
		if got := in.Intern(k); got != int32(i) {
			t.Errorf("Intern(%v) = %d after conversion, want %d", k, got, i)
		}
		if got, ok := in.Lookup(k); !ok || got != int32(i) {
			t.Errorf("Lookup(%v) = (%d, %v), want (%d, true)", k, got, ok, i)
		}
		if in.Key(int32(i)) != k {
			t.Errorf("Key(%d) = %v, want %v", i, in.Key(int32(i)), k)
		}
	}
	if _, ok := in.Lookup(MakeEdgeKey(0, 5)); ok {
		t.Error("Lookup of an absent key succeeded after conversion")
	}
}

// TestEdgeInternerNeverExceedsBudget feeds random keys — small and huge
// edge ids, dense and sparse networks — to interners of every small size:
// the tables never hold more than tableCellsPerEntry cells per sized path
// entry, counted as the cells and headers actually allocated.
func TestEdgeInternerNeverExceedsBudget(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := 1 + rng.Intn(200)
		in := NewEdgeInternerSized(entries)
		for op := 0; op < 300 && in.Tabled(); op++ {
			e := rng.Intn(64)
			if rng.Intn(10) == 0 {
				e = rng.Intn(1 << 22)
			}
			in.Intern(MakeEdgeKey(rng.Intn(1+rng.Intn(20)), e))
			held := len(in.tables) * headerCells
			for _, tb := range in.tables {
				held += cap(tb)
			}
			if held != in.cells || held > tableCellsPerEntry*entries {
				t.Fatalf("seed %d: tables hold %d cells (counted %d), budget %d", seed, held, in.cells, tableCellsPerEntry*entries)
			}
		}
	}
}

func TestIDInternerIdentityThenMap(t *testing.T) {
	in := NewIDInterner(4)
	for _, id := range []int{0, 0, 1, 2, 1, 3} {
		if s := in.Intern(id); s != int32(id) {
			t.Fatalf("Intern(%d) = %d while ids arrive in order, want the id", id, s)
		}
	}
	if !in.Identity() || in.slot != nil {
		t.Fatal("in-order ids should keep the identity, with no map")
	}
	if _, ok := in.Lookup(4); ok {
		t.Error("Lookup of a not-yet-seen id succeeded")
	}
	if _, ok := in.Lookup(-1); ok {
		t.Error("Lookup of a negative id succeeded")
	}
	if s := in.Intern(9); s != 4 {
		t.Fatalf("Intern(9) = %d, want the next slot 4", s)
	}
	if in.Identity() {
		t.Fatal("an out-of-order id should have converted the interner")
	}
	for _, c := range []struct{ id, slot int }{{0, 0}, {3, 3}, {9, 4}, {-2, 5}, {4, 6}, {9, 4}} {
		if s := in.Intern(c.id); s != int32(c.slot) {
			t.Errorf("Intern(%d) = %d after conversion, want %d", c.id, s, c.slot)
		}
		if s, ok := in.Lookup(c.id); !ok || s != int32(c.slot) {
			t.Errorf("Lookup(%d) = (%d, %v), want (%d, true)", c.id, s, ok, c.slot)
		}
		if in.ID(int32(c.slot)) != c.id {
			t.Errorf("ID(%d) = %d, want %d", c.slot, in.ID(int32(c.slot)), c.id)
		}
	}
	if got := in.IDs(); len(got) != in.Len() || len(got) != 7 {
		t.Errorf("IDs() = %v, Len() = %d, want 7 ids", got, in.Len())
	}

	// A release in map mode: the id misses, the next new id takes its
	// slot, and the one after it the next unused slot.
	in.Release(4)
	if s, ok := in.Lookup(9); ok {
		t.Fatalf("Lookup(9) = %d after its slot was released", s)
	}
	if s := in.Intern(11); s != 4 || in.ID(4) != 11 {
		t.Fatalf("Intern(11) = %d (ID %d), want the freed slot 4", s, in.ID(4))
	}
	if s := in.Intern(12); s != 7 || in.Len() != 8 {
		t.Fatalf("Intern(12) = %d with %d slots, want the next slot 7 of 8", s, in.Len())
	}

	// A release in identity mode converts the interner, keeping every
	// other slot, and the next new id takes the freed slot.
	id := NewIDInterner(4)
	for x := range 4 {
		id.Intern(x)
	}
	id.Release(1)
	if id.Identity() {
		t.Fatal("a release should have converted the interner")
	}
	if s, ok := id.Lookup(1); ok {
		t.Fatalf("Lookup(1) = %d after its slot was released", s)
	}
	for _, x := range []int{0, 2, 3} {
		if s, ok := id.Lookup(x); !ok || s != int32(x) {
			t.Errorf("Lookup(%d) = (%d, %v) after the release, want (%d, true)", x, s, ok, x)
		}
	}
	if s := id.Intern(4); s != 1 || id.ID(1) != 4 || id.Len() != 4 {
		t.Fatalf("Intern(4) = %d (ID %d, %d slots), want the freed slot 1 of 4", s, id.ID(1), id.Len())
	}
}
