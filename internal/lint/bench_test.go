package lint_test

import (
	"testing"

	"ndnprivacy/internal/lint"
)

// BenchmarkViewsafeWholeTree times the escape/retention analysis for
// view types over the entire module — the load/type-check cost is
// excluded so the 60-second CI lint budget has a number to point at. It
// doubles as a check that the tree stays viewsafe-clean (CI runs it at
// -benchtime=1x).
func BenchmarkViewsafeWholeTree(b *testing.B) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		b.Fatal(err)
	}
	units := lint.Units(pkgs)
	fset := pkgs[0].Fset
	checks := []*lint.Analyzer{lint.ViewSafe}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings := lint.CheckUnits(fset, units, checks)
		if len(findings) != 0 {
			b.Fatalf("whole-tree viewsafe not clean: %d findings, first: %s", len(findings), findings[0])
		}
	}
}
