package graph

import "sort"

// A component is a subset of vertices inducing a connected subtree (§4.1).
// SubtreeOps checks components given as vertex lists: their neighborhoods
// Γ and whether a list induces a subtree at all, which is what validating
// a decomposition needs. It owns scratch state sized to the tree, so one
// SubtreeOps can check a whole decomposition without reallocating.
//
// SubtreeOps is not safe for concurrent use.
type SubtreeOps struct {
	t    *Tree
	in   []bool // membership scratch for the component under operation
	seen []bool // visited scratch for IsComponent
}

// NewSubtreeOps returns component operations bound to t.
func NewSubtreeOps(t *Tree) *SubtreeOps {
	return &SubtreeOps{
		t:    t,
		in:   make([]bool, t.N()),
		seen: make([]bool, t.N()),
	}
}

func (s *SubtreeOps) mark(comp []Vertex)   { s.setAll(comp, true) }
func (s *SubtreeOps) unmark(comp []Vertex) { s.setAll(comp, false) }

func (s *SubtreeOps) setAll(comp []Vertex, v bool) {
	for _, x := range comp {
		s.in[x] = v
	}
}

// Neighbors returns Γ[comp]: the vertices outside comp adjacent to some
// vertex of comp, in ascending order.
func (s *SubtreeOps) Neighbors(comp []Vertex) []Vertex {
	s.mark(comp)
	defer s.unmark(comp)
	var out []Vertex
	for _, v := range comp {
		for _, w := range s.t.Adj(v) {
			if !s.in[w] {
				out = append(out, w)
			}
		}
	}
	sort.Ints(out)
	// Deduplicate in place.
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

// IsComponent reports whether comp induces a connected subtree of t.
func (s *SubtreeOps) IsComponent(comp []Vertex) bool {
	if len(comp) == 0 {
		return false
	}
	s.mark(comp)
	defer s.unmark(comp)
	count := 0
	queue := []Vertex{comp[0]}
	s.seen[comp[0]] = true
	visited := []Vertex{comp[0]}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		count++
		for _, w := range s.t.Adj(v) {
			if s.in[w] && !s.seen[w] {
				s.seen[w] = true
				visited = append(visited, w)
				queue = append(queue, w)
			}
		}
	}
	for _, v := range visited {
		s.seen[v] = false
	}
	return count == len(comp)
}
