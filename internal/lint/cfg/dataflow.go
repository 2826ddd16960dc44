package cfg

import (
	"go/ast"
	"go/types"
)

// bitset is a fixed-capacity bit vector keyed by def-site index.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// or unions o into b and reports whether b changed.
func (b bitset) or(o bitset) bool {
	changed := false
	for i := range b {
		if n := b[i] | o[i]; n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// nodePos locates a node inside its graph.
type nodePos struct {
	block *Block
	index int
}

// locate builds the node → position index for a graph.
func locate(g *Graph) map[ast.Node]nodePos {
	at := make(map[ast.Node]nodePos)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			at[n] = nodePos{block: b, index: i}
		}
	}
	return at
}

// Reaching is the classic reaching-definitions analysis over one graph:
// for any variable occurrence it answers which definitions (assignments,
// declarations, or the function's own parameters) may have produced the
// value observed there.
type Reaching struct {
	g    *Graph
	info *types.Info

	// sites is every definition site; the first len(params) entries are
	// the synthetic parameter definitions (Ident == nil).
	sites []Ref
	// sitesOf groups site indices by variable, for kill sets.
	sitesOf map[*types.Var][]int
	// defsAt caches the def Refs of each node.
	defsAt map[ast.Node][]int
	// in is the solved reaching set at each block entry.
	in map[*Block]bitset
	// at locates nodes.
	at map[ast.Node]nodePos
}

// NewReaching solves reaching definitions for g. params are the
// variables defined at function entry (parameters, receiver, named
// results); their definitions are the synthetic entry sites.
func NewReaching(g *Graph, info *types.Info, params []*types.Var) *Reaching {
	r := &Reaching{
		g:       g,
		info:    info,
		sitesOf: make(map[*types.Var][]int),
		defsAt:  make(map[ast.Node][]int),
		at:      locate(g),
	}
	for _, p := range params {
		r.addSite(Ref{Obj: p})
	}
	nParams := len(r.sites)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			defs := Defs(n, info)
			for _, d := range defs {
				r.defsAt[n] = append(r.defsAt[n], r.addSite(d))
			}
		}
	}

	// Solve with a forward worklist: IN = ∪ OUT(preds),
	// OUT = gen ∪ (IN − kill).
	n := len(r.sites)
	r.in = make(map[*Block]bitset, len(g.Blocks))
	out := make(map[*Block]bitset, len(g.Blocks))
	for _, b := range g.Blocks {
		r.in[b] = newBitset(n)
		out[b] = newBitset(n)
	}
	entryIn := r.in[g.Entry]
	for i := 0; i < nParams; i++ {
		entryIn.set(i)
	}
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make([]bool, len(g.Blocks))
	for i := range queued {
		queued[i] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		in := r.in[b]
		for _, p := range b.Preds {
			in.or(out[p])
		}
		o := r.transfer(b, in)
		if out[b].or(o) {
			for _, s := range b.Succs {
				if !queued[s.Index] {
					queued[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}
	return r
}

// addSite registers a definition site and returns its index.
func (r *Reaching) addSite(d Ref) int {
	i := len(r.sites)
	r.sites = append(r.sites, d)
	r.sitesOf[d.Obj] = append(r.sitesOf[d.Obj], i)
	return i
}

// transfer applies a block's definitions to the incoming set.
func (r *Reaching) transfer(b *Block, in bitset) bitset {
	s := in.clone()
	for _, n := range b.Nodes {
		r.step(s, n)
	}
	return s
}

// step applies one node's definitions to s in place.
func (r *Reaching) step(s bitset, n ast.Node) {
	for _, i := range r.defsAt[n] {
		for _, k := range r.sitesOf[r.sites[i].Obj] {
			s.clear(k)
		}
		s.set(i)
	}
}

// DefsOf returns the definitions of v that may reach the start of node
// n (before n's own stores). Entry (parameter) definitions have a nil
// Ident. A node not in the graph yields nil.
func (r *Reaching) DefsOf(v *types.Var, n ast.Node) []Ref {
	pos, ok := r.at[n]
	if !ok {
		return nil
	}
	s := r.in[pos.block].clone()
	for _, m := range pos.block.Nodes[:pos.index] {
		r.step(s, m)
	}
	var defs []Ref
	for _, i := range r.sitesOf[v] {
		if s.has(i) {
			defs = append(defs, r.sites[i])
		}
	}
	return defs
}

// ParamVars collects the variables a function defines at entry:
// receiver, parameters, and named results.
func ParamVars(info *types.Info, recv *ast.FieldList, ftype *ast.FuncType) []*types.Var {
	var vars []*types.Var
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					vars = append(vars, v)
				}
			}
		}
	}
	collect(recv)
	collect(ftype.Params)
	collect(ftype.Results)
	return vars
}

// ResultVars collects only the named result variables.
func ResultVars(info *types.Info, ftype *ast.FuncType) []*types.Var {
	var vars []*types.Var
	if ftype.Results == nil {
		return vars
	}
	for _, f := range ftype.Results.List {
		for _, name := range f.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				vars = append(vars, v)
			}
		}
	}
	return vars
}
