package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"ndnprivacy/internal/lint/cfg"
)

// viewFlow runs viewsafe's per-function taint analysis. Taint is a
// bitmask over taint sources: one bit per parameter slot (receiver
// first) plus viewLocalBit for views created inside the function by a
// //ndnlint:viewprop call. Values are traced flow-sensitively through
// the CFG's reaching definitions, so reassigning a variable to an
// owned value kills its taint on that path.
type viewFlow struct {
	vs       *viewSafe
	info     *types.Info
	scope    funcScope
	sum      *viewSummary
	graph    *cfg.Graph
	reach    *cfg.Reaching
	paramIdx map[*types.Var]int
	parents  map[ast.Node]ast.Node
	visiting map[*ast.Ident]bool
	isProp   bool
}

// analyzeScope builds the view summary for one function body.
// Functions marked //ndnlint:viewcopy are the trusted bridge from view
// to owned values and are exempt.
func (vs *viewSafe) analyzeScope(u *Unit, file *ast.File, scope funcScope) *viewSummary {
	var fn *types.Func
	var sig *types.Signature
	if scope.decl != nil {
		f, ok := u.Info.Defs[scope.decl.Name].(*types.Func)
		if !ok {
			return nil
		}
		fn = f
		sig, _ = fn.Type().(*types.Signature)
	} else {
		t := u.Info.TypeOf(scope.lit)
		if t != nil {
			sig, _ = t.(*types.Signature)
		}
	}
	if sig == nil {
		return nil
	}
	if fn != nil && vs.viewCopy[fn] {
		return nil
	}
	sum := &viewSummary{fn: fn, name: viewSummaryName(u, file, scope)}
	paramIdx := make(map[*types.Var]int)
	addParam := func(v *types.Var) {
		if v == nil {
			sum.params = append(sum.params, nil)
			return
		}
		paramIdx[v] = len(sum.params)
		if vs.containsView(v.Type()) {
			sum.viewParams |= viewParamBit(len(sum.params))
		}
		sum.params = append(sum.params, v)
	}
	if recv := sig.Recv(); recv != nil {
		addParam(recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		addParam(sig.Params().At(i))
	}

	f := &viewFlow{
		vs:       vs,
		info:     u.Info,
		scope:    scope,
		sum:      sum,
		graph:    scope.graph(),
		paramIdx: paramIdx,
		parents:  parentMap(scope.body),
		visiting: make(map[*ast.Ident]bool),
		isProp:   fn != nil && vs.viewProp[fn],
	}
	f.reach = cfg.NewReaching(f.graph, u.Info, cfg.ParamVars(u.Info, scope.recv, scope.ftype))
	for _, blk := range f.graph.Blocks {
		for _, n := range blk.Nodes {
			f.scanNode(n)
		}
	}
	return sum
}

// sink records a retention point; zero-taint stores are not sinks.
func (f *viewFlow) sink(pos token.Pos, msg string, mask uint64) {
	if mask == 0 {
		return
	}
	f.sum.sinks = append(f.sum.sinks, viewSink{pos: pos, msg: msg, mask: mask})
}

// --- node classification ------------------------------------------------

func (f *viewFlow) scanNode(n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		f.scanAssign(s)
		f.scanExprs(s, s)
	case *ast.SendStmt:
		f.sink(s.Arrow, "view sent on a channel", f.taint(s.Value, s))
		f.scanExprs(s, s)
	case *ast.ReturnStmt:
		f.scanReturn(s)
		f.scanExprs(s, s)
	case *ast.GoStmt:
		f.scanGo(s)
		f.scanExprs(s, s)
	case *ast.RangeStmt:
		// The CFG adds the whole RangeStmt as the loop-head node but
		// lowers the body into its own blocks; scan only the header.
		f.scanExprs(s.X, s)
	case *ast.DeclStmt:
		f.scanDecl(s)
		f.scanExprs(s, s)
	default:
		f.scanExprs(n, n)
	}
}

// scanExprs walks a node's expression subtree, recording call edges,
// extern sinks, and escaping-closure captures. Function literal
// interiors belong to their own scopes and are skipped.
func (f *viewFlow) scanExprs(root ast.Node, at ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			f.scanClosure(x, at)
			return false
		case *ast.CallExpr:
			f.scanCall(x, at)
		}
		return true
	})
}

// scanAssign checks every left-hand side a tainted value lands on.
func (f *viewFlow) scanAssign(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			f.store(lhs, f.taint(s.Rhs[i], s), s)
		}
		return
	}
	if len(s.Rhs) != 1 {
		return
	}
	switch rhs := ast.Unparen(s.Rhs[0]).(type) {
	case *ast.CallExpr:
		for i, lhs := range s.Lhs {
			f.store(lhs, f.callResultTaint(rhs, i, s), s)
		}
	case *ast.TypeAssertExpr:
		if len(s.Lhs) > 0 {
			f.store(s.Lhs[0], f.taint(rhs.X, s), s)
		}
	case *ast.UnaryExpr: // v, ok := <-ch
		if rhs.Op == token.ARROW && len(s.Lhs) > 0 {
			f.store(s.Lhs[0], f.taint(rhs, s), s)
		}
	}
}

// scanDecl handles `var x = expr` statements.
func (f *viewFlow) scanDecl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		val, ok := spec.(*ast.ValueSpec)
		if !ok || len(val.Values) != len(val.Names) {
			continue
		}
		for i, name := range val.Names {
			f.store(name, f.taint(val.Values[i], s), s)
		}
	}
}

// store classifies the destination of a tainted value.
func (f *viewFlow) store(lhs ast.Expr, mask uint64, at ast.Node) {
	if mask == 0 {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		v := f.varOf(l)
		if v != nil && pkgLevelVar(v) {
			f.sink(l.Pos(), fmt.Sprintf("view stored in package variable %s", l.Name), mask)
		}
		// Stores to locals are tracked by reaching definitions, not
		// flagged: retention only happens when the local escapes.
	case *ast.SelectorExpr:
		if sel := f.info.Selections[l]; sel != nil && sel.Kind() == types.FieldVal {
			// Building a view aggregate (v.wire = ... inside
			// ParseNameView) is fine: the aggregate is itself a view
			// and carries the taint onward.
			if f.vs.containsView(f.typeOf(l.X)) {
				return
			}
			f.sink(l.Sel.Pos(), fmt.Sprintf("view stored in struct field %s", l.Sel.Name), mask)
			return
		}
		if v, ok := f.info.Uses[l.Sel].(*types.Var); ok && pkgLevelVar(v) {
			f.sink(l.Sel.Pos(), fmt.Sprintf("view stored in package variable %s", l.Sel.Name), mask)
		}
	case *ast.IndexExpr:
		switch f.typeOf(l.X).Underlying().(type) {
		case *types.Map:
			f.sink(l.Pos(), "view stored in a map", mask)
		case *types.Slice:
			f.sink(l.Pos(), "view stored in a slice element", mask)
		}
		// Arrays have value semantics: a local array of views is only
		// a problem when the array itself escapes, which the array's
		// own taint covers.
	case *ast.StarExpr:
		f.sink(l.Pos(), "view stored through a pointer", mask)
	}
}

// scanReturn flags view results leaving a function that is not
// declared to propagate views.
func (f *viewFlow) scanReturn(s *ast.ReturnStmt) {
	if f.isProp {
		return
	}
	const msg = "view returned from a function not marked //ndnlint:viewprop"
	if len(s.Results) == 0 && f.scope.ftype != nil {
		for _, v := range cfg.ResultVars(f.info, f.scope.ftype) {
			f.sink(s.Pos(), msg, f.identTaint(v, s))
		}
		return
	}
	for _, res := range s.Results {
		f.sink(res.Pos(), msg, f.taint(res, s))
	}
}

// scanGo flags views crossing into a goroutine, whose lifetime is
// unbounded relative to the wire buffer.
func (f *viewFlow) scanGo(s *ast.GoStmt) {
	var mask uint64
	for _, a := range s.Call.Args {
		mask |= f.taint(a, s)
	}
	if _, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); !isLit {
		mask |= f.taint(s.Call.Fun, s)
	}
	f.sink(s.Pos(), "view passed to a goroutine", mask)
	// A `go func(){...}()` literal is handled by scanClosure, which
	// sees the GoStmt parent and flags tainted captures.
}

// scanClosure flags function literals that capture tainted variables
// and may run after the buffer dies: goroutine bodies and literals
// that escape (stored or passed rather than invoked in place).
func (f *viewFlow) scanClosure(lit *ast.FuncLit, at ast.Node) {
	mask, captured := f.closureCaptureMask(lit, at)
	if mask == 0 {
		return
	}
	parent := f.parents[lit]
	for {
		if _, ok := parent.(*ast.ParenExpr); !ok {
			break
		}
		parent = f.parents[parent]
	}
	if call, ok := parent.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == lit {
		if _, isGo := f.parents[call].(*ast.GoStmt); isGo {
			f.sink(lit.Pos(), fmt.Sprintf("view %s captured by a goroutine closure", captured), mask)
		}
		// Invoked in place (incl. defer): runs while the buffer lives.
		return
	}
	f.sink(lit.Pos(), fmt.Sprintf("view %s captured by an escaping closure", captured), mask)
}

// closureCaptureMask unions the taint of every outer variable the
// literal captures, returning the first tainted name for the message.
func (f *viewFlow) closureCaptureMask(lit *ast.FuncLit, at ast.Node) (uint64, string) {
	var mask uint64
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := f.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || pkgLevelVar(v) {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own local or parameter
		}
		if m := f.identTaint(v, at); m != 0 {
			mask |= m
			if name == "" {
				name = id.Name
			}
		}
		return true
	})
	return mask, name
}

// --- calls --------------------------------------------------------------

// scanCall records summary edges for module calls and sinks for
// external, interface, and dynamic calls that receive tainted values.
func (f *viewFlow) scanCall(call *ast.CallExpr, at ast.Node) {
	if tv, ok := f.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion: handled by taint propagation
	}
	callee, recvExpr, kind := f.resolveCall(call)
	switch kind {
	case viewCallBuiltin, viewCallInline:
		return
	case viewCallStatic:
		if f.vs.viewCopy[callee] {
			return // the trusted copy boundary: arguments are read, not kept
		}
		if !f.moduleFunc(callee) {
			f.externSink(call, callee, recvExpr, at)
			return
		}
		// Edges are resolved against summaries during the fixpoint,
		// so recording them before the callee is analyzed is fine.
		f.recordEdges(call, callee, recvExpr, at)
	case viewCallIface:
		mask := f.argTaint(call, nil, at)
		f.sink(call.Pos(), fmt.Sprintf("view passed through interface call %s (unverifiable retention)", callee.Name()), mask)
	case viewCallDynamic:
		mask := f.argTaint(call, nil, at)
		f.sink(call.Pos(), "view passed through a dynamic call (unverifiable retention)", mask)
	}
}

// moduleFunc reports whether fn belongs to one of the analyzed units.
func (f *viewFlow) moduleFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	for _, u := range f.vs.pass.Units {
		if u.Pkg == pkg {
			return true
		}
	}
	return false
}

// externSink flags tainted arguments handed to functions outside the
// module, unless the function is on the vetted non-retaining list.
func (f *viewFlow) externSink(call *ast.CallExpr, callee *types.Func, recvExpr ast.Expr, at ast.Node) {
	if viewExternClean(callee) {
		return
	}
	mask := f.argTaint(call, recvExpr, at)
	f.sink(call.Pos(), fmt.Sprintf("view passed to %s, which may retain it", shortFuncName(callee)), mask)
}

// argTaint unions receiver and argument taint.
func (f *viewFlow) argTaint(call *ast.CallExpr, recvExpr ast.Expr, at ast.Node) uint64 {
	var mask uint64
	if recvExpr != nil {
		mask |= f.taint(recvExpr, at)
	}
	for _, a := range call.Args {
		mask |= f.taint(a, at)
	}
	return mask
}

// recordEdges maps tainted arguments onto the callee's parameter
// slots for summary composition.
func (f *viewFlow) recordEdges(call *ast.CallExpr, callee *types.Func, recvExpr ast.Expr, at ast.Node) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	offset := 0
	if sig.Recv() != nil {
		offset = 1
		if recvExpr != nil {
			if m := f.taint(recvExpr, at); m != 0 {
				f.sum.edges = append(f.sum.edges, viewEdge{pos: call.Pos(), callee: callee, param: 0, mask: m})
			}
		}
	}
	nparams := sig.Params().Len()
	if nparams == 0 {
		return
	}
	for i, a := range call.Args {
		m := f.taint(a, at)
		if m == 0 {
			continue
		}
		slot := i
		if slot >= nparams {
			slot = nparams - 1 // variadic tail
		}
		f.sum.edges = append(f.sum.edges, viewEdge{pos: call.Pos(), callee: callee, param: slot + offset, mask: m})
	}
}

// call classification
const (
	viewCallStatic = iota
	viewCallIface
	viewCallBuiltin
	viewCallDynamic
	viewCallInline
)

// resolveCall identifies the call target: static functions, concrete
// and interface methods, builtins, and dynamic function values.
func (f *viewFlow) resolveCall(call *ast.CallExpr) (*types.Func, ast.Expr, int) {
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return nil, nil, viewCallInline
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s := f.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return nil, nil, viewCallDynamic
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
					return fn, sel.X, viewCallIface
				}
			}
			return fn.Origin(), sel.X, viewCallStatic
		}
	}
	id := calleeIdent(fun)
	if id == nil {
		return nil, nil, viewCallDynamic
	}
	switch obj := f.info.Uses[id].(type) {
	case *types.Func:
		return obj.Origin(), nil, viewCallStatic
	case *types.Builtin:
		return nil, nil, viewCallBuiltin
	case *types.Nil:
		return nil, nil, viewCallBuiltin
	default:
		return nil, nil, viewCallDynamic
	}
}

// --- taint evaluation ---------------------------------------------------

// typeOf is info.TypeOf with a nil guard.
func (f *viewFlow) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return f.info.TypeOf(e)
}

// varOf resolves an identifier to its variable object.
func (f *viewFlow) varOf(id *ast.Ident) *types.Var {
	if v, ok := f.info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := f.info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// taint computes the source mask an expression's value may carry at
// node `at`. Basic-typed values (hashes, lengths, strings) can never
// alias a view, which is what lets string conversions act as the copy
// boundary.
func (f *viewFlow) taint(e ast.Expr, at ast.Node) uint64 {
	if e == nil {
		return 0
	}
	if t := f.typeOf(e); t != nil && !canCarryView(t) {
		return 0
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := f.varOf(x); v != nil {
			return f.identTaint(v, at)
		}
		return 0
	case *ast.SelectorExpr:
		if sel := f.info.Selections[x]; sel != nil {
			if sel.Kind() == types.FieldVal {
				return f.taint(x.X, at)
			}
			return 0 // method value
		}
		if v, ok := f.info.Uses[x.Sel].(*types.Var); ok {
			return f.identTaint(v, at)
		}
		return 0
	case *ast.IndexExpr:
		return f.taint(x.X, at)
	case *ast.IndexListExpr:
		return f.taint(x.X, at)
	case *ast.SliceExpr:
		return f.taint(x.X, at)
	case *ast.StarExpr:
		return f.taint(x.X, at)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return f.taint(x.X, at)
		}
		return 0
	case *ast.CompositeLit:
		var m uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= f.taint(kv.Value, at)
			} else {
				m |= f.taint(el, at)
			}
		}
		return m
	case *ast.TypeAssertExpr:
		return f.taint(x.X, at)
	case *ast.CallExpr:
		if tv, ok := f.info.Types[x.Fun]; ok && tv.IsType() {
			return f.conversionTaint(x, at)
		}
		return f.callResultTaint(x, 0, at)
	}
	return 0
}

// conversionTaint: conversions to basic types (string included) copy;
// conversions between reference shapes alias the same memory.
func (f *viewFlow) conversionTaint(conv *ast.CallExpr, at ast.Node) uint64 {
	if len(conv.Args) != 1 {
		return 0
	}
	op := conv.Args[0]
	if t := f.typeOf(op); t != nil {
		if _, basic := t.Underlying().(*types.Basic); basic {
			return 0 // []byte(string) and friends build fresh storage
		}
	}
	return f.taint(op, at)
}

// callResultTaint computes the mask of result `idx` of a call. Only
// //ndnlint:viewprop functions (and functions whose declared result is
// a view type) hand views back; their result carries the union of the
// argument taint, or viewLocalBit when the view is born here (derived
// from an owned buffer).
func (f *viewFlow) callResultTaint(call *ast.CallExpr, idx int, at ast.Node) uint64 {
	if tv, ok := f.info.Types[call.Fun]; ok && tv.IsType() {
		return f.conversionTaint(call, at)
	}
	callee, recvExpr, kind := f.resolveCall(call)
	if kind == viewCallBuiltin {
		return f.builtinTaint(call, at)
	}
	if callee == nil || kind == viewCallInline {
		return 0
	}
	if f.vs.viewCopy[callee] {
		return 0 // owned copy by contract
	}
	rt := f.resultType(call, idx)
	if rt == nil || !f.vs.resultCarriesView(rt) {
		return 0
	}
	if !f.vs.viewProp[callee] && !f.vs.containsView(rt) {
		return 0 // plain function returning plain bytes: assumed owned
	}
	// Only view-typed sources keep their provenance through a viewprop
	// call (v.Component(i) on a view parameter still points at that
	// parameter's buffer). Deriving a view from anything else — an
	// owned local, a plain []byte parameter — births a view right
	// here, which is what makes retaining it a definite violation in
	// this function rather than a conditional fact about callers.
	mask := f.argTaint(call, recvExpr, at) & (viewLocalBit | f.sum.viewParams)
	if mask == 0 {
		mask = viewLocalBit
	}
	return mask
}

// resultType extracts the type of result idx of call.
func (f *viewFlow) resultType(call *ast.CallExpr, idx int) types.Type {
	tv, ok := f.info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		if idx < tuple.Len() {
			return tuple.At(idx).Type()
		}
		return nil
	}
	if idx == 0 {
		return tv.Type
	}
	return nil
}

// builtinTaint models append and copy: appending byte elements copies
// them into dst's storage, appending view elements propagates them.
func (f *viewFlow) builtinTaint(call *ast.CallExpr, at ast.Node) uint64 {
	id := calleeIdent(ast.Unparen(call.Fun))
	if id == nil || id.Name != "append" || len(call.Args) == 0 {
		return 0
	}
	mask := f.taint(call.Args[0], at)
	elemBasic := false
	if s, ok := f.typeOf(call.Args[0]).Underlying().(*types.Slice); ok {
		_, elemBasic = s.Elem().Underlying().(*types.Basic)
	}
	for i, a := range call.Args[1:] {
		if call.Ellipsis.IsValid() && i == len(call.Args)-2 && elemBasic {
			continue // append(b, view...) copies the bytes out of the view
		}
		mask |= f.taint(a, at)
	}
	return mask
}

// identTaint unions the taint of every definition of v reaching `at`.
// The entry definition contributes the variable's parameter bit;
// captured and package-level variables of view-bearing types are
// treated as live views.
func (f *viewFlow) identTaint(v *types.Var, at ast.Node) uint64 {
	if v == nil || !canCarryView(v.Type()) {
		return 0
	}
	if pkgLevelVar(v) {
		if f.vs.containsView(v.Type()) {
			return viewLocalBit // already a structural violation; keep tracking it
		}
		return 0
	}
	defs := f.reach.DefsOf(v, at)
	if defs == nil {
		if i, ok := f.paramIdx[v]; ok {
			return viewParamBit(i)
		}
		if !f.scope.declaredIn(v) && f.vs.containsView(v.Type()) {
			return viewLocalBit // captured view from the enclosing scope
		}
		return 0
	}
	var mask uint64
	for _, d := range defs {
		if d.Ident == nil {
			if i, ok := f.paramIdx[v]; ok {
				mask |= viewParamBit(i)
			}
			continue
		}
		if f.visiting[d.Ident] {
			continue // x = x[1:] style cycles add nothing new
		}
		f.visiting[d.Ident] = true
		if d.Rhs != nil {
			mask |= f.taint(d.Rhs, d.Node)
		} else {
			mask |= f.defTaintNoRhs(d)
		}
		delete(f.visiting, d.Ident)
	}
	return mask
}

// defTaintNoRhs handles definitions the def/use extractor records
// without a right-hand side: range bindings and multi-value unpacking.
func (f *viewFlow) defTaintNoRhs(d cfg.Ref) uint64 {
	switch n := d.Node.(type) {
	case *ast.RangeStmt:
		return f.taint(n.X, d.Node)
	case *ast.AssignStmt:
		if len(n.Rhs) != 1 {
			return 0
		}
		switch rhs := ast.Unparen(n.Rhs[0]).(type) {
		case *ast.CallExpr:
			for i, lhs := range n.Lhs {
				if lid, ok := ast.Unparen(lhs).(*ast.Ident); ok && lid == d.Ident {
					return f.callResultTaint(rhs, i, d.Node)
				}
			}
		case *ast.TypeAssertExpr:
			if len(n.Lhs) > 0 {
				if lid, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && lid == d.Ident {
					return f.taint(rhs.X, d.Node)
				}
			}
		}
	}
	return 0
}
