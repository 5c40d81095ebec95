package lint

import (
	"go/ast"
	"go/types"
)

// Maprange flags `range` statements over map-typed operands in
// deterministic packages. Go randomizes map iteration order per run, so
// any map-order-dependent computation on the solve path breaks the
// bitwise guarantee — the §6 per-resource combine once had exactly this
// bug (last-ulp profit drift from summing per-resource profits in map
// order), and it survived until a fuzz seed tripped it.
//
// The fix is to iterate a sorted key slice instead:
//
//	for _, k := range slices.Sorted(maps.Keys(m)) { ... }
//
// which this analyzer accepts for free (the ranged operand is a slice).
// Loops whose body genuinely commutes — pure counting, building a set,
// folding with ∧/∨/min/max — may instead carry a waiver stating why:
//
//	//schedvet:ok maprange set-insert commutes; order never observed
var Maprange = &Analyzer{
	Name:    "maprange",
	Doc:     "flags range over maps in deterministic packages (iteration order is randomized)",
	DetOnly: true,
	Run:     runMaprange,
}

func runMaprange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if m, ok := coreType(t).(*types.Map); ok {
				pass.Reportf(rs, "range over %s iterates in randomized order; sort the keys (slices.Sorted(maps.Keys(...))) or waive with //schedvet:ok maprange <why the loop commutes>", types.TypeString(m, types.RelativeTo(pass.Pkg.Types)))
			}
			return true
		})
	}
}

// coreType unwraps named types and single-type-term interfaces to the
// underlying core type (enough of go/types.CoreType for our use).
func coreType(t types.Type) types.Type {
	return t.Underlying()
}
