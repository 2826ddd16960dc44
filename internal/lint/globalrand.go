package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand forbids the process-global math/rand functions everywhere
// (not just the deterministic packages): the global source is shared
// mutable state seeded outside any experiment's control, so one
// rand.Intn in a helper makes two runs with the same -seed diverge.
// Constructing an injected source (rand.New, rand.NewSource, rand.NewZipf,
// and math/rand/v2's rand.NewPCG and rand.NewChaCha8) remains legal, as
// do methods on a *rand.Rand value.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid top-level math/rand functions; randomness must flow through an injected seeded *rand.Rand",
	Hint: "thread a seeded *rand.Rand (rand.New(rand.NewSource(seed))) through the call path and use its methods",
	Run:  runGlobalRand,
}

// globalRandAllowed are the math/rand and math/rand/v2 package-level
// functions that build injectable sources rather than touching the
// global one.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true, // math/rand
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runGlobalRand(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn := funcObj(pass.Info, id)
			if fn == nil {
				return true
			}
			path := pkgPathOf(fn)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // *rand.Rand methods are fine
			}
			if globalRandAllowed[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "rand.%s uses the process-global math/rand source", fn.Name())
			return true
		})
	}
}
