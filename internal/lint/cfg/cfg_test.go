package cfg_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"ndnprivacy/internal/lint/cfg"
)

// build parses src (a complete file), type-checks it, and returns the
// CFG of the function named fn plus the machinery to inspect it.
func build(t *testing.T, src, fn string) (*cfg.Graph, *ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return cfg.New(fd.Body), fd, info, fset
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil, nil, nil
}

// kinds returns the multiset of block kinds in the graph.
func kinds(g *cfg.Graph) map[string]int {
	m := make(map[string]int)
	for _, b := range g.Blocks {
		m[b.Kind]++
	}
	return m
}

// blockOf returns the block holding the first node whose source text
// (single identifier or statement head) satisfies match.
func blockOf(t *testing.T, g *cfg.Graph, fset *token.FileSet, match func(ast.Node) bool) *cfg.Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if match(n) {
				return b
			}
		}
	}
	t.Fatal("no block holds a matching node")
	return nil
}

// identUse finds the i-th use of name inside fd (0-based).
func identUse(t *testing.T, fd *ast.FuncDecl, name string, i int) *ast.Ident {
	t.Helper()
	var found *ast.Ident
	seen := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if seen == i {
				found = id
				return false
			}
			seen++
		}
		return true
	})
	if found == nil {
		t.Fatalf("use %d of %q not found", i, name)
	}
	return found
}

func hasSucc(b, s *cfg.Block) bool {
	for _, x := range b.Succs {
		if x == s {
			return true
		}
	}
	return false
}

func TestBranchesJoin(t *testing.T) {
	g, _, _, fset := build(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`, "f")
	k := kinds(g)
	if k["if.then"] != 1 || k["if.else"] != 1 || k["if.join"] != 1 {
		t.Fatalf("expected then/else/join blocks, got %v", k)
	}
	cond := blockOf(t, g, fset, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "c"
	})
	if len(cond.Succs) != 2 {
		t.Fatalf("condition block should have 2 successors, got %d", len(cond.Succs))
	}
	join := blockOf(t, g, fset, func(n ast.Node) bool {
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
	if len(join.Preds) != 2 {
		t.Fatalf("join should merge 2 paths, got %d preds", len(join.Preds))
	}
}

func TestShortCircuit(t *testing.T) {
	g, _, _, fset := build(t, `package p
func f(a, b bool) int {
	if a && b {
		return 1
	}
	return 0
}`, "f")
	if kinds(g)["cond.rhs"] != 1 {
		t.Fatalf("a && b should lower to a cond.rhs block, got %v", kinds(g))
	}
	first := blockOf(t, g, fset, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "a"
	})
	rhs := blockOf(t, g, fset, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "b"
	})
	if first == rhs {
		t.Fatal("operands of && must evaluate in different blocks")
	}
	if !hasSucc(first, rhs) {
		t.Fatal("true edge of `a` must lead to the `b` block")
	}
	// The false edge of `a` must bypass `b` entirely.
	bypass := false
	for _, s := range first.Succs {
		if s != rhs {
			bypass = true
		}
	}
	if !bypass {
		t.Fatal("false edge of `a` must bypass the `b` block")
	}
}

func TestLoopBackEdge(t *testing.T) {
	g, _, _, fset := build(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	head := blockOf(t, g, fset, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		return ok && be.Op == token.LSS
	})
	post := blockOf(t, g, fset, func(n ast.Node) bool {
		_, ok := n.(*ast.IncDecStmt)
		return ok
	})
	if !hasSucc(post, head) {
		t.Fatal("post block must loop back to the loop head")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("loop head needs body+done successors, got %d", len(head.Succs))
	}
}

func TestRangeAndLabeledBreak(t *testing.T) {
	g, _, _, fset := build(t, `package p
func f(xs [][]int) int {
outer:
	for _, row := range xs {
		for _, v := range row {
			if v < 0 {
				break outer
			}
		}
	}
	return 1
}`, "f")
	ret := blockOf(t, g, fset, func(n ast.Node) bool {
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
	// The labeled break must create an edge from inside the inner loop
	// straight to the outer loop's done block, which reaches return.
	if len(ret.Preds) < 2 {
		t.Fatalf("return should be reachable both normally and via break outer, got %d preds", len(ret.Preds))
	}
	if kinds(g)["range.head"] != 2 {
		t.Fatalf("expected two range heads, got %v", kinds(g))
	}
}

func TestDeferCollected(t *testing.T) {
	g, _, _, _ := build(t, `package p
func f() {
	defer println("a")
	if true {
		defer println("b")
	}
}`, "f")
	if len(g.Defers) != 2 {
		t.Fatalf("expected 2 collected defers, got %d", len(g.Defers))
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g, _, _, fset := build(t, `package p
func f(n int) int {
	x := 0
	switch n {
	case 1:
		x = 1
		fallthrough
	case 2:
		x = 2
	default:
		x = 3
	}
	return x
}`, "f")
	case1 := blockOf(t, g, fset, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		lit, ok := as.Rhs[0].(*ast.BasicLit)
		return ok && lit.Value == "1"
	})
	case2 := blockOf(t, g, fset, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		lit, ok := as.Rhs[0].(*ast.BasicLit)
		return ok && lit.Value == "2"
	})
	if !hasSucc(case1, case2) {
		t.Fatal("fallthrough must edge from case 1's body to case 2's body")
	}
}

func TestReachingDefinitions(t *testing.T) {
	src := `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`
	g, fd, info, _ := build(t, src, "f")
	reach := cfg.NewReaching(g, info, cfg.ParamVars(info, nil, fd.Type))

	// Find the return statement and the object of x.
	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r
		}
		return true
	})
	xObj := info.Uses[ret.Results[0].(*ast.Ident)].(*types.Var)

	defs := reach.DefsOf(xObj, ret)
	if len(defs) != 2 {
		t.Fatalf("both x definitions should reach the return, got %d", len(defs))
	}
}

func TestReachingKill(t *testing.T) {
	src := `package p
func f() int {
	x := 1
	x = 2
	return x
}`
	g, fd, info, _ := build(t, src, "f")
	reach := cfg.NewReaching(g, info, nil)
	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r
		}
		return true
	})
	xObj := info.Uses[ret.Results[0].(*ast.Ident)].(*types.Var)
	defs := reach.DefsOf(xObj, ret)
	if len(defs) != 1 {
		t.Fatalf("x = 2 must kill x := 1; got %d reaching defs", len(defs))
	}
	if defs[0].Rhs == nil {
		t.Fatal("surviving def should carry its RHS")
	}
	if lit, ok := defs[0].Rhs.(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Fatalf("surviving def should be x = 2, got %v", defs[0].Rhs)
	}
}

func TestShortCircuitReaching(t *testing.T) {
	// A definition inside the RHS of || must not be treated as
	// executing unconditionally: both defs reach the use.
	src := `package p
func t1() bool { return true }
func f(a bool) bool {
	ok := false
	if a || func() bool { ok = t1(); return ok }() {
		return ok
	}
	return false
}`
	// The closure makes ok captured; this test only checks the graph
	// builds and the use strings are sane — a smoke test for mixed
	// short-circuit + closure shapes.
	g, _, _, _ := build(t, src, "f")
	if len(g.Blocks) < 4 {
		t.Fatalf("expected a lowered graph, got %d blocks", len(g.Blocks))
	}
	if kinds(g)["cond.rhs"] != 1 {
		t.Fatalf("|| should lower to a cond.rhs block, got %v", kinds(g))
	}
}

func TestSelectLowering(t *testing.T) {
	g, _, _, _ := build(t, `package p
func f(a, b chan int) int {
	x := 0
	select {
	case v := <-a:
		x = v
	case <-b:
		x = 1
	}
	return x
}`, "f")
	if kinds(g)["comm.body"] != 2 {
		t.Fatalf("expected 2 comm bodies, got %v", kinds(g))
	}
}

func TestUnreachableCodeIsolated(t *testing.T) {
	g, _, _, fset := build(t, `package p
func f() {
	return
	println("dead")
}`, "f")
	dead := blockOf(t, g, fset, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "println"
	})
	if !strings.HasPrefix(dead.Kind, "unreachable") {
		t.Fatalf("statement after return should land in an unreachable block, got %q", dead.Kind)
	}
	if len(dead.Preds) != 0 {
		t.Fatalf("unreachable block must have no predecessors, got %d", len(dead.Preds))
	}
}
