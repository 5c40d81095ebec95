package model

// EdgeInterner maps EdgeKeys to contiguous int32 indices, assigned in first-
// seen order. The hot path of the two-phase framework tests ξ-satisfaction by
// summing β over an item's path; with interned indices that sum is a tight
// loop over an int32 slice into a dense []float64 instead of a map hash per
// edge. An interner is built once per item set (per run, per shard, or per
// dist node) and is read-only afterwards; it is not safe for concurrent
// mutation, but concurrent lookups of a frozen interner are.
//
// Lookups go through one table per network, indexed by edge id and holding
// 1 + the key's index (0 = absent). Tree edge ids are below the network's
// vertex count, so on a tree the tables are dense: a hit is two slice loads.
//
// Edge ids come from outside, though: a line slot id is bounded only by the
// caller's slot count, and a few demands on a huge tree touch few of its
// edge ids. So the tables have a budget. Together they hold at most
// tableCellsPerEntry cells per path entry the interner was sized for: two
// int32 cells are the 8 bytes each entry already costs as an EdgeKey in the
// items, so the index never outweighs the paths it indexes. A key the budget
// cannot table, or one with a negative network id, converts the interner
// once, in place, to a map built from the key slice, so every index stays.
// An unsized interner starts as the map. The map is a memory-safety
// fallback for sparse key spaces, not a second fast path.
type EdgeInterner struct {
	keys []EdgeKey
	// tables[n][e] is 1 + the index of MakeEdgeKey(n, e), 0 if absent. nil
	// once converted to idx.
	tables [][]int32
	cells  int // table cells held, each network's slot counted as headerCells
	budget int
	idx    map[EdgeKey]int32 // non-nil once the key space proved sparse
}

const (
	// tableCellsPerEntry bounds the tables by the paths they index: two
	// int32 cells per sized path entry are the 8 bytes of that entry's
	// EdgeKey.
	tableCellsPerEntry = 2
	// headerCells is what one network's slot in the outer table costs
	// against the budget: a slice header is three words, six int32 cells.
	headerCells = 6
)

// NewEdgeInterner returns an empty, unsized interner. It keeps its keys in
// a map from the start.
func NewEdgeInterner() *EdgeInterner { return NewEdgeInternerSized(0) }

// NewEdgeInternerSized returns an empty interner whose tables may hold up
// to tableCellsPerEntry cells for each of pathEntries path entries — the
// total length of the index lists the interner will serve. pathEntries ≤ 0
// starts it as the map.
func NewEdgeInternerSized(pathEntries int) *EdgeInterner {
	if pathEntries <= 0 {
		return &EdgeInterner{idx: make(map[EdgeKey]int32)}
	}
	return &EdgeInterner{budget: tableCellsPerEntry * pathEntries}
}

// Intern returns the dense index of k, assigning the next free index when k
// is new.
func (in *EdgeInterner) Intern(k EdgeKey) int32 {
	if i, ok := in.probe(k); ok {
		return i
	}
	return in.add(k)
}

// probe returns k's index from the tables, if they hold it. A converted
// interner has no tables, so every probe misses.
func (in *EdgeInterner) probe(k EdgeKey) (int32, bool) {
	if n := k.Tree(); uint(n) < uint(len(in.tables)) {
		if t, e := in.tables[n], k.Edge(); e < len(t) && t[e] != 0 {
			return t[e] - 1, true
		}
	}
	return 0, false
}

// add interns k after a probe missed: k is new, or the interner is the map.
func (in *EdgeInterner) add(k EdgeKey) int32 {
	if in.idx == nil {
		if in.growTable(k) {
			i := int32(len(in.keys))
			in.tables[k.Tree()][k.Edge()] = i + 1
			in.keys = append(in.keys, k)
			return i
		}
		in.toMap()
	}
	if i, ok := in.idx[k]; ok {
		return i
	}
	i := int32(len(in.keys))
	in.idx[k] = i
	in.keys = append(in.keys, k)
	return i
}

// growTable makes the tables cover k within the budget, reporting false
// when they cannot. A network's table at least doubles when it grows, so
// interning a network's edges in any order copies each cell O(1) times.
func (in *EdgeInterner) growTable(k EdgeKey) bool {
	n, e := k.Tree(), k.Edge()
	if n < 0 {
		return false
	}
	if n >= len(in.tables) {
		extra := (n + 1 - len(in.tables)) * headerCells
		if extra > in.budget-in.cells {
			return false
		}
		tables := make([][]int32, n+1)
		copy(tables, in.tables)
		in.tables = tables
		in.cells += extra
	}
	old := in.tables[n]
	if e < len(old) {
		return true
	}
	size := max(e+1, 2*len(old))
	if size-len(old) > in.budget-in.cells {
		size = e + 1
		if size-len(old) > in.budget-in.cells {
			return false
		}
	}
	t := make([]int32, size)
	copy(t, old)
	in.tables[n] = t
	in.cells += size - len(old)
	return true
}

// toMap converts the interner to the map, keeping every index.
func (in *EdgeInterner) toMap() {
	in.idx = make(map[EdgeKey]int32, len(in.keys)+1)
	for i, k := range in.keys {
		in.idx[k] = int32(i)
	}
	in.tables, in.cells = nil, 0
}

// InternPath interns every key of path and returns the index list, aligned
// with path.
func (in *EdgeInterner) InternPath(path []EdgeKey) []int32 {
	out := make([]int32, len(path))
	for j, k := range path {
		out[j] = in.Intern(k)
	}
	return out
}

// Lookup returns the index of k without interning.
func (in *EdgeInterner) Lookup(k EdgeKey) (int32, bool) {
	if in.idx != nil {
		i, ok := in.idx[k]
		return i, ok
	}
	return in.probe(k)
}

// Tabled reports whether the interner still holds its tables, so a lookup
// is two slice loads and no hash. It turns false, for good, when a key
// converts the interner to the map.
func (in *EdgeInterner) Tabled() bool { return in.idx == nil }

// Len returns the number of interned keys.
func (in *EdgeInterner) Len() int { return len(in.keys) }

// Key returns the EdgeKey at index i.
func (in *EdgeInterner) Key(i int32) EdgeKey { return in.keys[i] }

// Keys returns the interned keys in index order. The slice is the interner's
// backing array; callers must not mutate it.
func (in *EdgeInterner) Keys() []EdgeKey { return in.keys }

// IDInterner assigns int ids dense int32 slots: the one interning of
// demand ids (dual.Index), whose slots also key the engine's per-demand
// priority streams. A cold build sees ids 0, 1, 2, … in order, each
// possibly repeated, and a Session's arrivals take the next ids in order,
// so while every id so far equals its slot the slot is the id and no map
// exists. The first other id, or the first Release, converts the interner
// once to a map of the ids seen so far, with the same slots. Release gives
// a slot back, and the next new id takes the most recently freed one, so
// an interner whose ids come and go holds as many slots as it ever held
// live ids at once. The zero value is an empty interner.
type IDInterner struct {
	ids  []int         // slot -> id; a freed slot keeps its last id
	slot map[int]int32 // id -> slot; nil while ids[s] == s for every slot s
	free []int32       // freed slots, the next new id's on top
}

// NewIDInterner returns an empty interner with room for n ids.
func NewIDInterner(n int) IDInterner { return IDInterner{ids: make([]int, 0, max(n, 0))} }

// Intern returns the slot of id, assigning a free slot when id is new: the
// most recently released one, or else the next unused one.
func (in *IDInterner) Intern(id int) int32 {
	if in.slot == nil && uint(id) < uint(len(in.ids)) {
		return int32(id)
	}
	return in.add(id)
}

// add interns id when it is not a seen id of an identity interner.
func (in *IDInterner) add(id int) int32 {
	if in.slot == nil {
		if id == len(in.ids) {
			in.ids = append(in.ids, id)
			return int32(id)
		}
		in.toMap()
	}
	if s, ok := in.slot[id]; ok {
		return s
	}
	var s int32
	if k := len(in.free) - 1; k >= 0 {
		s, in.free = in.free[k], in.free[:k]
		in.ids[s] = id
	} else {
		s = int32(len(in.ids))
		in.ids = append(in.ids, id)
	}
	in.slot[id] = s
	return s
}

// toMap converts an identity interner to the map, keeping every slot.
func (in *IDInterner) toMap() {
	in.slot = make(map[int]int32, len(in.ids)+1)
	for s, x := range in.ids {
		in.slot[x] = int32(s)
	}
}

// Release frees slot s, which must hold an interned id: the id's lookups
// miss from then on, and the next new id takes the slot.
func (in *IDInterner) Release(s int32) {
	if in.slot == nil {
		in.toMap()
	}
	delete(in.slot, in.ids[s])
	in.free = append(in.free, s)
}

// Lookup returns the slot of id without interning.
func (in *IDInterner) Lookup(id int) (int32, bool) {
	if in.slot == nil {
		if uint(id) < uint(len(in.ids)) {
			return int32(id), true
		}
		return 0, false
	}
	s, ok := in.slot[id]
	return s, ok
}

// Identity reports whether every slot still equals its id, so a lookup
// needs no map. It turns false, for good, at the first other id or the
// first Release.
func (in *IDInterner) Identity() bool { return in.slot == nil }

// ID returns the id at slot s: the interned id, or, at a freed slot, the
// last id it held.
func (in *IDInterner) ID(s int32) int { return in.ids[s] }

// Len returns the number of slots, freed ones included.
func (in *IDInterner) Len() int { return len(in.ids) }

// IDs returns the ids in slot order, a freed slot's last id included. The
// slice is the interner's backing array, which Intern rewrites in place
// when it reuses a freed slot; callers must not mutate it.
func (in *IDInterner) IDs() []int { return in.ids }
