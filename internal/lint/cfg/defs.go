package cfg

import (
	"go/ast"
	"go/types"
)

// Ref is one definition of a variable: a node that stores into it.
type Ref struct {
	// Obj is the variable.
	Obj *types.Var
	// Ident is the occurrence.
	Ident *ast.Ident
	// Rhs is the expression whose value the definition stores, when the
	// node makes one syntactically evident (x := e, x = e, single-value
	// tuple positions). Nil for range bindings and multi-value calls.
	Rhs ast.Expr
	// Node is the graph node the reference occurs in (nil for the
	// synthetic entry definitions of parameters).
	Node ast.Node
}

// Defs returns the variable definitions node n makes, resolving
// identifiers through info. Assignments inside function literals are
// never reported — the closure body runs at some other time and is
// analyzed as its own graph. Selector fields, labels, and non-variable
// objects are ignored.
func Defs(n ast.Node, info *types.Info) []Ref {
	c := &refCollector{info: info}
	c.node(n)
	for i := range c.defs {
		c.defs[i].Node = n
	}
	return c.defs
}

type refCollector struct {
	info *types.Info
	defs []Ref
}

func (c *refCollector) varOf(id *ast.Ident) *types.Var {
	if obj, ok := c.info.Defs[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := c.info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

func (c *refCollector) def(id *ast.Ident, rhs ast.Expr) {
	if id == nil || id.Name == "_" {
		return
	}
	if v := c.varOf(id); v != nil {
		c.defs = append(c.defs, Ref{Obj: v, Ident: id, Rhs: rhs})
	}
}

func (c *refCollector) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assign(n)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			c.def(id, nil)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				}
				c.def(name, rhs)
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				c.def(id, nil)
			}
		}
	case *ast.TypeSwitchStmt:
		// Only reached when the Assign statement node is added directly.
		c.node(n.Assign)
	case *ast.IfStmt:
		// Only the Init statement is ever placed in a block directly;
		// conditions arrive as ast.Expr nodes.
		if n.Init != nil {
			c.node(n.Init)
		}
	case *ast.LabeledStmt:
		c.node(n.Stmt)
	}
}

// assign records a definition for every identifier on the left-hand
// side; m[k] = v, s.f = v and *p = v define nothing.
func (c *refCollector) assign(n *ast.AssignStmt) {
	for i, l := range n.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		}
		c.def(id, rhs)
	}
}
