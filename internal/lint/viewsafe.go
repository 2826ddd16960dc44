package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// viewsafe enforces the lifetime contract of zero-copy wire views.
//
// A type annotated //ndnlint:viewtype aliases a caller-owned buffer
// (internal/ndn's NameView and ComponentView alias the raw packet
// wire). Such a value is only valid while that buffer is: it must not
// be stored anywhere that outlives the call — struct fields, package
// variables, maps, slice elements, channels — nor escape through
// returns, goroutines, or closures. Crossing a retention boundary
// requires an owned copy via a //ndnlint:viewcopy method (Clone), or
// an explicit //ndnlint:allow viewsafe waiver.
//
// The analysis is flow-sensitive and interprocedural:
//
//   - Within each function, view values are traced through the CFG's
//     reaching definitions. A view is "born" at a call to a function
//     marked //ndnlint:viewprop (ParseNameView, Name.ComponentRef);
//     view-typed parameters are tracked symbolically.
//   - Per-function summaries record which parameters, if handed a
//     view, would reach a retention sink. Summaries compose across
//     calls to a fixpoint, so a view smuggled through a plain []byte
//     parameter chain is still caught — and reported with a witness
//     chain "f → g → h" naming the functions the view traveled
//     through.
//
// Structural rules back the dataflow: a named type embedding a view
// type must itself be annotated //ndnlint:viewtype, package variables
// must not hold views, and a function whose signature returns a view
// type must be marked //ndnlint:viewprop.
//
// Conversions to string (and any basic type) copy and therefore
// launder taint; //ndnlint:viewcopy calls do the same by contract.

const (
	viewSafeName      = "viewsafe"
	viewTypeDirective = "//ndnlint:viewtype"
	viewCopyDirective = "//ndnlint:viewcopy"
	viewPropDirective = "//ndnlint:viewprop"
)

// ViewSafe is the escape/retention analysis for zero-copy view types.
var ViewSafe = &Analyzer{
	Name:      viewSafeName,
	Doc:       "view types (//ndnlint:viewtype) must not outlive the buffer they alias",
	Hint:      "copy with the type's //ndnlint:viewcopy method (Clone) before retaining, or waive with `//ndnlint:allow viewsafe — reason`",
	RunModule: runViewSafe,
}

// viewLocalBit marks taint from a view created inside the function
// under analysis (a //ndnlint:viewprop call result), as opposed to one
// received through a parameter.
const viewLocalBit = uint64(1) << 63

// viewParamBit returns the taint bit for parameter index i. Functions
// with more than 63 parameters share the last bit (conservative).
func viewParamBit(i int) uint64 {
	if i > 62 {
		i = 62
	}
	return uint64(1) << uint(i)
}

// viewSink is one retention point: a program position where a value
// tainted by mask would outlive the enclosing call.
type viewSink struct {
	pos  token.Pos
	msg  string
	mask uint64
}

// viewEdge records a call that passes possibly-view-tainted data into
// a module function's parameter, for summary composition.
type viewEdge struct {
	pos    token.Pos
	callee *types.Func
	param  int // callee parameter slot; receiver is slot 0 for methods
	mask   uint64
}

// viewSummary is the per-function analysis result.
type viewSummary struct {
	fn         *types.Func // nil for function literals
	name       string      // display name for witness chains
	params     []*types.Var
	viewParams uint64 // bits of parameters with view-containing declared types
	sinks      []viewSink
	edges      []viewEdge
}

// paramSinkInfo is a fixpoint fact: handing a view to this parameter
// reaches the recorded sink, via the recorded chain of functions.
type paramSinkInfo struct {
	pos   token.Pos
	msg   string
	chain string
}

// viewSafe carries the module-wide analysis state.
type viewSafe struct {
	fset      *token.FileSet
	pass      *ModulePass
	viewTypes map[*types.TypeName]bool
	viewCopy  map[*types.Func]bool
	viewProp  map[*types.Func]bool
	order     []*viewSummary
	summaries map[*types.Func]*viewSummary
	reported  map[token.Pos]bool
}

func runViewSafe(pass *ModulePass) {
	vs := &viewSafe{
		fset:      pass.Fset,
		pass:      pass,
		viewTypes: make(map[*types.TypeName]bool),
		viewCopy:  make(map[*types.Func]bool),
		viewProp:  make(map[*types.Func]bool),
		summaries: make(map[*types.Func]*viewSummary),
		reported:  make(map[token.Pos]bool),
	}
	for _, u := range pass.Units {
		for _, f := range u.Files {
			vs.collectDirectives(u, f)
		}
	}
	if len(vs.viewTypes) == 0 {
		return // nothing to protect
	}
	for _, u := range pass.Units {
		for _, f := range u.Files {
			vs.structural(u, f)
			for _, scope := range funcScopes(f) {
				if sum := vs.analyzeScope(u, f, scope); sum != nil {
					vs.order = append(vs.order, sum)
					if sum.fn != nil {
						vs.summaries[sum.fn] = sum
					}
				}
			}
		}
	}
	paramSinks := vs.fixpoint()
	vs.reportAll(paramSinks)
}

// --- directives ---------------------------------------------------------

// collectDirectives records every viewtype/viewcopy/viewprop annotation
// in the file.
func (vs *viewSafe) collectDirectives(u *Unit, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !vs.directiveOn(file, d.Doc, d.Pos(), viewTypeDirective) &&
					!vs.directiveOn(file, ts.Doc, ts.Pos(), viewTypeDirective) {
					continue
				}
				if tn, ok := u.Info.Defs[ts.Name].(*types.TypeName); ok {
					vs.viewTypes[tn] = true
				}
			}
		case *ast.FuncDecl:
			fn, ok := u.Info.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			if vs.directiveOn(file, d.Doc, d.Pos(), viewCopyDirective) {
				vs.viewCopy[fn] = true
			}
			if vs.directiveOn(file, d.Doc, d.Pos(), viewPropDirective) {
				vs.viewProp[fn] = true
			}
		}
	}
}

// directiveOn reports whether the directive appears in doc or on the
// line directly above pos.
func (vs *viewSafe) directiveOn(file *ast.File, doc *ast.CommentGroup, pos token.Pos, directive string) bool {
	if doc != nil {
		for _, com := range doc.List {
			if isDirectiveComment(com.Text, directive) {
				return true
			}
		}
	}
	line := vs.fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, com := range cg.List {
			if isDirectiveComment(com.Text, directive) && vs.fset.Position(com.Pos()).Line == line-1 {
				return true
			}
		}
	}
	return false
}

// isDirectiveComment reports whether text is the given directive,
// optionally followed by free-form justification.
func isDirectiveComment(text, directive string) bool {
	if !strings.HasPrefix(text, directive) {
		return false
	}
	rest := strings.TrimPrefix(text, directive)
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// --- type predicates ----------------------------------------------------

// isViewNamed reports whether t is itself an annotated view type.
func (vs *viewSafe) isViewNamed(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	return vs.viewTypes[named.Obj()] || vs.viewTypes[named.Origin().Obj()]
}

// containsView reports whether a value of type t can hold a view:
// the type is an annotated view type or reaches one through pointers,
// containers, or struct fields.
func (vs *viewSafe) containsView(t types.Type) bool {
	return vs.containsViewRec(t, nil)
}

func (vs *viewSafe) containsViewRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if vs.isViewNamed(t) {
		return true
	}
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return vs.containsViewRec(u.Elem(), seen)
	case *types.Slice:
		return vs.containsViewRec(u.Elem(), seen)
	case *types.Array:
		return vs.containsViewRec(u.Elem(), seen)
	case *types.Map:
		return vs.containsViewRec(u.Key(), seen) || vs.containsViewRec(u.Elem(), seen)
	case *types.Chan:
		return vs.containsViewRec(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if vs.containsViewRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// canCarryView reports whether a value of type t can alias view-backed
// memory at all. Basic types (including string, whose conversions
// copy) and aggregates of only basic types cannot, which is what makes
// hash values, lengths, and string keys taint-free.
func canCarryView(t types.Type) bool {
	if t == nil {
		return true // missing type info: stay conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canCarryView(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return canCarryView(u.Elem())
	}
	return true
}

// resultCarriesView reports whether a call result of type t can hand a
// view (or its raw bytes) back to the caller: declared view types, and
// byte-slice-shaped types a //ndnlint:viewprop function may alias.
func (vs *viewSafe) resultCarriesView(t types.Type) bool {
	if vs.containsView(t) {
		return true
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		_, basic := s.Elem().Underlying().(*types.Basic)
		return basic
	}
	return false
}

// --- structural rules ---------------------------------------------------

// structural enforces the declaration-level contract: view types may
// only appear inside other annotated view types, never in package
// variables, and functions returning views must be marked viewprop.
func (vs *viewSafe) structural(u *Unit, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := u.Info.Defs[ts.Name].(*types.TypeName)
					if !ok || vs.viewTypes[tn] {
						continue
					}
					vs.checkTypeSpec(u, ts)
				}
			case token.VAR:
				for _, spec := range d.Specs {
					val, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range val.Names {
						v, ok := u.Info.Defs[name].(*types.Var)
						if !ok || !vs.containsView(v.Type()) {
							continue
						}
						vs.pass.Reportf(name.Pos(), "package variable %s holds a view type; views must not outlive the buffer they alias",
							name.Name)
					}
				}
			}
		case *ast.FuncDecl:
			vs.checkResultContract(u, file, d)
		}
	}
}

// checkTypeSpec flags un-annotated named types that embed views.
func (vs *viewSafe) checkTypeSpec(u *Unit, ts *ast.TypeSpec) {
	if st, ok := ts.Type.(*ast.StructType); ok {
		for _, field := range st.Fields.List {
			ft := u.Info.TypeOf(field.Type)
			if ft == nil || !vs.containsView(ft) {
				continue
			}
			label := "embedded field"
			if len(field.Names) > 0 {
				label = "field " + field.Names[0].Name
			}
			vs.pass.Reportf(field.Pos(), "%s of %s holds view type %s; mark %s //ndnlint:viewtype if it is itself a view, or store an owned copy",
				label, ts.Name.Name, types.TypeString(ft, shortQualifier), ts.Name.Name)
		}
		return
	}
	if dt := u.Info.TypeOf(ts.Type); dt != nil && vs.containsView(dt) {
		vs.pass.Reportf(ts.Pos(), "type %s is declared from view type %s; mark it //ndnlint:viewtype or store an owned copy",
			ts.Name.Name, types.TypeString(dt, shortQualifier))
	}
}

// checkResultContract flags functions whose signature returns a view
// type without declaring the intent via viewprop (or viewcopy, whose
// results are owned by contract).
func (vs *viewSafe) checkResultContract(u *Unit, file *ast.File, d *ast.FuncDecl) {
	fn, ok := u.Info.Defs[d.Name].(*types.Func)
	if !ok || vs.viewProp[fn] || vs.viewCopy[fn] {
		return
	}
	_ = file
	if d.Type.Results == nil {
		return
	}
	for _, res := range d.Type.Results.List {
		rt := u.Info.TypeOf(res.Type)
		if rt == nil || !vs.containsView(rt) {
			continue
		}
		vs.pass.Reportf(d.Name.Pos(), "%s returns view type %s but is not marked //ndnlint:viewprop",
			shortFuncName(fn), types.TypeString(rt, shortQualifier))
		return
	}
}

// --- interprocedural fixpoint -------------------------------------------

// fixpoint composes per-function summaries: paramSinks[f][i] records
// that feeding a view into parameter slot i of f reaches a sink, with
// the witness chain of functions it travels through.
func (vs *viewSafe) fixpoint() map[*types.Func]map[int]paramSinkInfo {
	paramSinks := make(map[*types.Func]map[int]paramSinkInfo)
	for _, sum := range vs.order {
		if sum.fn == nil {
			continue
		}
		ps := make(map[int]paramSinkInfo)
		for _, s := range sum.sinks {
			for i := range sum.params {
				if s.mask&viewParamBit(i) == 0 {
					continue
				}
				if _, dup := ps[i]; !dup {
					ps[i] = paramSinkInfo{pos: s.pos, msg: s.msg, chain: sum.name}
				}
			}
		}
		paramSinks[sum.fn] = ps
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range vs.order {
			if sum.fn == nil {
				continue
			}
			for _, e := range sum.edges {
				info, ok := paramSinks[e.callee][e.param]
				if !ok {
					continue
				}
				for i := range sum.params {
					if e.mask&viewParamBit(i) == 0 {
						continue
					}
					if _, exists := paramSinks[sum.fn][i]; exists {
						continue
					}
					paramSinks[sum.fn][i] = paramSinkInfo{
						pos:   info.pos,
						msg:   info.msg,
						chain: sum.name + " → " + info.chain,
					}
					changed = true
				}
			}
		}
	}
	return paramSinks
}

// reportAll emits findings: definite sinks (a view created locally or
// received through a view-typed parameter reaches a retention point),
// and call chains that hand a definite view to a retaining callee.
// Sinks are deduplicated by position, first reporter wins; functions
// are visited in source order so output is deterministic.
func (vs *viewSafe) reportAll(paramSinks map[*types.Func]map[int]paramSinkInfo) {
	order := make([]*viewSummary, len(vs.order))
	copy(order, vs.order)
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := vs.fset.Position(posOf(order[i])), vs.fset.Position(posOf(order[j]))
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	for _, sum := range order {
		definite := viewLocalBit | sum.viewParams
		for _, s := range sum.sinks {
			if s.mask&definite == 0 {
				continue
			}
			vs.report(s.pos, s.msg, sum.name)
		}
		for _, e := range sum.edges {
			if e.mask&definite == 0 {
				continue
			}
			info, ok := paramSinks[e.callee][e.param]
			if !ok {
				continue
			}
			vs.report(info.pos, info.msg, sum.name+" → "+info.chain)
		}
	}
}

// posOf returns a summary's anchor position for deterministic ordering.
func posOf(sum *viewSummary) token.Pos {
	if len(sum.sinks) > 0 {
		return sum.sinks[0].pos
	}
	if len(sum.edges) > 0 {
		return sum.edges[0].pos
	}
	return token.NoPos
}

func (vs *viewSafe) report(pos token.Pos, msg, chain string) {
	if vs.reported[pos] {
		return
	}
	vs.reported[pos] = true
	vs.pass.Reportf(pos, "%s (view path: %s)", msg, chain)
}

// viewCleanExterns are standard-library functions vetted not to retain
// or alias their byte-slice arguments beyond the call, keyed by
// types.Func.FullName. Everything else outside the module is assumed
// to retain what it is handed.
var viewCleanExterns = map[string]bool{
	"bytes.Equal":     true,
	"bytes.Compare":   true,
	"bytes.Contains":  true,
	"bytes.HasPrefix": true,
	"bytes.HasSuffix": true,
	"bytes.Index":     true,
	"bytes.IndexByte": true,
	"bytes.Count":     true,

	"crypto/hmac.Equal":                 true,
	"crypto/subtle.ConstantTimeCompare": true,

	"(encoding/binary.bigEndian).Uint16":    true,
	"(encoding/binary.bigEndian).Uint32":    true,
	"(encoding/binary.bigEndian).Uint64":    true,
	"(encoding/binary.littleEndian).Uint16": true,
	"(encoding/binary.littleEndian).Uint32": true,
	"(encoding/binary.littleEndian).Uint64": true,

	"unicode/utf8.Valid":     true,
	"unicode/utf8.RuneCount": true,
}

// viewExternClean reports whether fn (outside the module) is known not
// to retain its arguments.
func viewExternClean(fn *types.Func) bool {
	return viewCleanExterns[fn.FullName()]
}

// viewSummaryName renders the chain label for a scope.
func viewSummaryName(u *Unit, file *ast.File, scope funcScope) string {
	if scope.decl != nil {
		if fn, ok := u.Info.Defs[scope.decl.Name].(*types.Func); ok {
			return shortFuncName(fn)
		}
		return scope.decl.Name.Name
	}
	// A literal: anchor it to the enclosing declaration when one exists.
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !withinNode(fd, scope.lit) {
			continue
		}
		if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
			return shortFuncName(fn) + ".func"
		}
		return fd.Name.Name + ".func"
	}
	return fmt.Sprintf("func literal at %s", u.Pkg.Name())
}
