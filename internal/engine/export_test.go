package engine

import "treesched/internal/dual"

// MergedDual exposes Result.mergedDual to the external test package: the
// dual assignment of any solve, serial or sharded.
func MergedDual(r *Result) *dual.Assignment { return r.mergedDual() }
