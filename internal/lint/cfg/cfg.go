// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and provides the small dataflow machinery (definition
// extraction, reaching definitions) that internal/lint's
// flow-sensitive checks are written against. It is deliberately
// stdlib-only — go/ast + go/types, no golang.org/x/tools — so the
// linter stays offline-buildable with nothing beyond the toolchain.
//
// The graph is statement-granular: each Block holds the ast.Nodes that
// execute unconditionally once the block is entered, in source order.
// Conditions of if/for statements are lowered with short-circuit
// evaluation (a && b becomes two condition blocks), so definitions and
// uses inside the right-hand side of a logical operator are only
// observed on the paths that actually evaluate it. Deferred calls are
// collected on the graph rather than placed in blocks: they run at
// every function exit, which is how the analyses treat them.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is a straight-line sequence of AST nodes with no internal
// control transfer. Control enters at the first node and leaves through
// one of Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks (creation order;
	// Blocks[0] is the entry block).
	Index int
	// Kind names what the block lowers ("entry", "if.then", "for.body",
	// "cond.rhs", ...) for tests and debugging.
	Kind string
	// Nodes are the statements and condition expressions executed in
	// order when the block runs.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks in creation order; Blocks[0] is Entry.
	Blocks []*Block
	// Entry is where control enters the function.
	Entry *Block
	// Exit is the synthetic block every return and fall-off-the-end
	// edge targets. It holds no nodes.
	Exit *Block
	// Defers are the deferred calls encountered anywhere in the body,
	// in source order. They execute at every exit.
	Defers []*ast.DeferStmt
}

// New builds the CFG of body. A nil body (declaration without a body)
// yields a graph whose entry falls straight through to exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.g.Exit)
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

// builder lowers statements into blocks.
type builder struct {
	g *Graph
	// cur is the block under construction; nil after an unconditional
	// transfer (return, break, ...) until the next labeled/join block.
	cur *Block
	// loops is the stack of enclosing breakable/continuable targets.
	loops []loopFrame
	// labels maps label names to their lowering state, for labeled
	// break/continue and goto.
	labels map[string]*labelInfo
}

type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type labelInfo struct {
	// block is the target block of the label, created on first mention
	// (goto before the label, or the labeled statement itself).
	block *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock makes blk the current block.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// add appends a node to the current block, materializing an unreachable
// block if control cannot reach here (e.g. code after return).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) label(name string) *labelInfo {
	if b.labels == nil {
		b.labels = make(map[string]*labelInfo)
	}
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// frameFor returns the innermost loop/switch frame matching label (or
// the innermost applicable frame when label is empty). continueOnly
// restricts the search to frames with a continue target.
func (b *builder) frameFor(label string, continueOnly bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if continueOnly && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.ifStmt(s, "")

	case *ast.ForStmt:
		b.forStmt(s, "")

	case *ast.RangeStmt:
		b.rangeStmt(s, "")

	case *ast.SwitchStmt:
		b.switchStmt(s, "")

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.LabeledStmt:
		b.labeledStmt(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, expression statements, go, send,
		// inc/dec: straight-line nodes.
		b.add(s)
	}
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	li := b.label(s.Label.Name)
	if li.block == nil {
		li.block = b.newBlock("label." + s.Label.Name)
	}
	b.jump(li.block)
	b.startBlock(li.block)
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	case *ast.IfStmt:
		b.ifStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if f := b.frameFor(label, false); f != nil {
			b.jump(f.breakTo)
		} else {
			b.cur = nil // malformed; sever the path
		}
	case token.CONTINUE:
		if f := b.frameFor(label, true); f != nil {
			b.jump(f.continueTo)
		} else {
			b.cur = nil
		}
	case token.GOTO:
		li := b.label(label)
		if li.block == nil {
			li.block = b.newBlock("label." + label)
		}
		b.jump(li.block)
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt; ignore here.
	}
}

// cond lowers a boolean expression with short-circuit evaluation,
// wiring edges to t (expression true) and f (expression false). The
// current block evaluates the first operand; further operands get
// their own blocks so defs/uses on the skipped side stay path-scoped.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.rhs")
			b.cond(x.X, rhs, f)
			b.startBlock(rhs)
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.rhs")
			b.cond(x.X, t, rhs)
			b.startBlock(rhs)
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.add(e)
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, t, f)
	}
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	then := b.newBlock("if.then")
	join := b.newBlock("if.join")
	elseTarget := join
	if s.Else != nil {
		elseTarget = b.newBlock("if.else")
	}
	if label != "" {
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join})
		defer func() { b.loops = b.loops[:len(b.loops)-1] }()
	}
	b.cond(s.Cond, then, elseTarget)
	b.startBlock(then)
	b.stmtList(s.Body.List)
	b.jump(join)
	if s.Else != nil {
		b.startBlock(elseTarget)
		b.stmt(s.Else)
		b.jump(join)
	}
	b.startBlock(join)
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	done := b.newBlock("for.done")
	b.jump(head)
	b.startBlock(head)
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.jump(body)
	}
	b.loops = append(b.loops, loopFrame{label: label, breakTo: done, continueTo: post})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.jump(post)
	if s.Post != nil {
		b.startBlock(post)
		b.add(s.Post)
		b.jump(head)
	}
	b.startBlock(done)
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(head)
	b.startBlock(head)
	// The head both evaluates the range expression and binds the
	// iteration variables; the whole RangeStmt node stands for that.
	b.add(s)
	b.cur.Succs = append(b.cur.Succs, body, done)
	b.cur = nil
	b.loops = append(b.loops, loopFrame{label: label, breakTo: done, continueTo: head})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.jump(head)
	b.startBlock(done)
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt) {
		return cc.List, cc.Body
	})
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt) {
		return cc.List, cc.Body
	})
}

// caseClauses lowers switch/type-switch bodies: every clause is entered
// from the switch head; fallthrough chains to the next clause's body.
func (b *builder) caseClauses(clauses []ast.Stmt, label string, split func(*ast.CaseClause) ([]ast.Expr, []ast.Stmt)) {
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.startBlock(head)
	}
	join := b.newBlock("switch.join")
	b.cur = nil

	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, raw := range clauses {
		cc, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		bodies[i] = b.newBlock("case.body")
		if exprs, _ := split(cc); exprs == nil {
			hasDefault = true
		}
	}
	for i, raw := range clauses {
		cc, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		exprs, stmts := split(cc)
		head.Succs = append(head.Succs, bodies[i])
		b.startBlock(bodies[i])
		for _, e := range exprs {
			b.add(e)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join})
		var fellThrough bool
		for j, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && j == len(stmts)-1 {
				if i+1 < len(bodies) && bodies[i+1] != nil {
					b.jump(bodies[i+1])
					fellThrough = true
				}
				break
			}
			b.stmt(st)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !fellThrough {
			b.jump(join)
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, join)
	}
	b.startBlock(join)
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock("select.head")
		b.startBlock(head)
	}
	join := b.newBlock("select.join")
	b.cur = nil
	for _, raw := range s.Body.List {
		cc, ok := raw.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock("comm.body")
		head.Succs = append(head.Succs, body)
		b.startBlock(body)
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join})
		b.stmtList(cc.Body)
		b.loops = b.loops[:len(b.loops)-1]
		b.jump(join)
	}
	if len(s.Body.List) == 0 {
		head.Succs = append(head.Succs, join)
	}
	b.startBlock(join)
}
