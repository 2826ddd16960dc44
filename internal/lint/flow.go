package lint

import (
	"go/ast"
	"go/token"

	"ndnprivacy/internal/lint/cfg"
)

// funcScope is one analyzable function body: a declaration or a
// function literal. Literals are analyzed as functions in their own
// right — their bodies execute at some unrelated time, so flow facts
// (reaching definitions) never carry across the boundary.
type funcScope struct {
	recv  *ast.FieldList // nil for literals and plain functions
	ftype *ast.FuncType
	body  *ast.BlockStmt
}

// funcScopes enumerates every function body in the file: declarations
// and all function literals, however nested.
func funcScopes(file *ast.File) []funcScope {
	var scopes []funcScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				scopes = append(scopes, funcScope{recv: fn.Recv, ftype: fn.Type, body: fn.Body})
			}
		case *ast.FuncLit:
			scopes = append(scopes, funcScope{ftype: fn.Type, body: fn.Body})
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
