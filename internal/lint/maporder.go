package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `for range` over a map inside the deterministic
// packages when the loop body does something order-sensitive: appends to
// a slice, schedules a simulator event, or writes output. Go randomizes
// map iteration order per run, so any of those leaks nondeterminism
// straight into event schedules or report bytes. Order-independent
// bodies (counting, deleting, set union) pass untouched, and a
// range-collect is accepted when the collected slice is sorted by a
// later statement in the same block (`sort.*` / `slices.Sort*`).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive iteration over maps in deterministic packages",
	Hint: "collect keys into a slice, sort them, and iterate the sorted slice (or sort the collected result before use)",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		for _, list := range stmtLists(file) {
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, isMap := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRange(pass, rs, list[i+1:])
			}
		}
	}
}

// stmtLists yields every statement list in the file, so a range stmt can
// be examined together with the statements that follow it.
func stmtLists(file *ast.File) [][]ast.Stmt {
	var lists [][]ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			lists = append(lists, s.List)
		case *ast.CaseClause:
			lists = append(lists, s.Body)
		case *ast.CommClause:
			lists = append(lists, s.Body)
		}
		return true
	})
	return lists
}

// mapEffect is one order-sensitive operation inside a map-range body.
type mapEffect struct {
	pos    token.Pos
	desc   string
	target types.Object // for appends: the variable or field being grown
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, tail []ast.Stmt) {
	var effects []mapEffect
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				effects = append(effects, mapEffect{
					pos:    call.Pos(),
					desc:   "appends to " + types.ExprString(call.Args[0]),
					target: sliceObj(pass.Info, call.Args[0]),
				})
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			fn := funcObj(pass.Info, fun.Sel)
			switch {
			case name == "Schedule":
				effects = append(effects, mapEffect{pos: call.Pos(), desc: "schedules a simulator event"})
			case pkgPathOf(fn) == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
				effects = append(effects, mapEffect{pos: call.Pos(), desc: "writes output via fmt." + name})
			case strings.HasPrefix(name, "Write") && fn != nil && fn.Pkg() != nil:
				effects = append(effects, mapEffect{pos: call.Pos(), desc: "writes output via ." + name})
			}
		}
		return true
	})
	for _, e := range effects {
		if e.target != nil && sortedAfter(pass, tail, e.target) {
			continue
		}
		pass.Reportf(e.pos, "iteration over map %s is order-randomized but the body %s", types.ExprString(rs.X), e.desc)
	}
}

// sliceObj resolves the slice an append grows to the variable or field
// it names, or nil.
func sliceObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return info.ObjectOf(x.Sel)
	}
	return nil
}

// sortedAfter reports whether a statement after the range passes the
// collected slice to a sort or slices function, which restores
// determinism.
func sortedAfter(pass *Pass, tail []ast.Stmt, target types.Object) bool {
	for _, stmt := range tail {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path := pkgPathOf(funcObj(pass.Info, sel.Sel))
			if path != "sort" && path != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if names(pass.Info, arg, target) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// names reports whether e refers to obj, possibly under a conversion
// (sort.Sort(byName(keys))). Function literals are skipped: a less
// function that reads obj does not sort it.
func names(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		_, lit := n.(*ast.FuncLit)
		return !found && !lit
	})
	return found
}
