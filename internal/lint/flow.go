package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"ndnprivacy/internal/lint/cfg"
)

// funcScope is one analyzable function body: a declaration or a
// function literal. Literals are analyzed as functions in their own
// right — their bodies execute at some unrelated time, so flow facts
// (reaching definitions) never carry across the boundary.
type funcScope struct {
	decl  *ast.FuncDecl // nil for literals
	lit   *ast.FuncLit  // nil for declarations
	recv  *ast.FieldList
	ftype *ast.FuncType
	body  *ast.BlockStmt
}

// node returns the scope's AST node (for span tests).
func (fs funcScope) node() ast.Node {
	if fs.decl != nil {
		return fs.decl
	}
	return fs.lit
}

// declaredIn reports whether v's declaration lies inside this scope —
// distinguishing a literal's own locals from captured outer variables.
func (fs funcScope) declaredIn(v *types.Var) bool {
	n := fs.node()
	return v.Pos() >= n.Pos() && v.Pos() < n.End()
}

// funcScopes enumerates every function body in the file: declarations
// and all function literals, however nested.
func funcScopes(file *ast.File) []funcScope {
	var scopes []funcScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				scopes = append(scopes, funcScope{decl: fn, recv: fn.Recv, ftype: fn.Type, body: fn.Body})
			}
		case *ast.FuncLit:
			scopes = append(scopes, funcScope{lit: fn, ftype: fn.Type, body: fn.Body})
		}
		return true
	})
	return scopes
}

// graph builds the scope's CFG.
func (fs funcScope) graph() *cfg.Graph { return cfg.New(fs.body) }

// walkNoFuncLit visits n's subtree in source order, skipping function
// literal bodies (their statements belong to a different funcScope).
func walkNoFuncLit(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return visit(m)
	})
}

// isCompoundDef reports whether def node n rewrites its targets in
// terms of their previous value (x += e, x++), so provenance tracing
// must also follow the variable's earlier definitions.
func isCompoundDef(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		return s.Tok != token.ASSIGN && s.Tok != token.DEFINE
	case *ast.IncDecStmt:
		return true
	}
	return false
}

// parentMap records each AST node's parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[m] = stack[len(stack)-1]
		}
		stack = append(stack, m)
		return true
	})
	return parents
}

// withinNode reports whether inner lies within outer's span.
func withinNode(outer ast.Node, inner ast.Node) bool {
	return inner.Pos() >= outer.Pos() && inner.End() <= outer.End()
}

// calleeIdent extracts the identifier a call expression names, through
// selectors and generic instantiations.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch x := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.IndexExpr:
		return calleeIdent(x.X)
	case *ast.IndexListExpr:
		return calleeIdent(x.X)
	}
	return nil
}

// pkgLevelVar reports whether v is declared at package scope.
func pkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// shortFuncName renders fn as pkg.Func or (recv).Method without import
// paths, for finding messages.
func shortFuncName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), shortQualifier) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// shortQualifier renders package names without import paths.
func shortQualifier(p *types.Package) string { return p.Name() }
