package cache

import (
	"sort"

	"ndnprivacy/internal/ndn"
)

// nameIndex is a component trie over cached full names supporting
// enumeration of all names under a prefix in lexicographic order. The
// composite-table store replaced it with a sorted prefix index for the
// live lookup path (pcct.Table.CSLowerBound); the trie remains as the
// independently-grown structure the differential reference store uses,
// which is exactly what makes the property test meaningful.
type nameIndex struct {
	root *indexNode
}

type indexNode struct {
	// children is kept sorted by key at insert time, so enumeration
	// needs no per-call key collection and sort.
	children []indexChild
	// terminal holds the full name when a cached object ends here.
	terminal *ndn.Name
}

type indexChild struct {
	key  string
	node *indexNode
}

// indexPathDepth sizes the stack-allocated removal path; names deeper
// than this fall back to a heap append (none do in practice — the NDN
// names the simulator handles are a handful of components).
const indexPathDepth = 32

func newNameIndex() *nameIndex {
	return &nameIndex{root: &indexNode{}}
}

// childAt returns the position of key in the sorted children slice and
// whether it is present.
func (n *indexNode) childAt(key string) (int, bool) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].key >= key })
	return i, i < len(n.children) && n.children[i].key == key
}

func (ix *nameIndex) insert(name ndn.Name) {
	node := ix.root
	for i := 0; i < name.Len(); i++ {
		key := string(name.ComponentRef(i))
		pos, ok := node.childAt(key)
		if ok {
			node = node.children[pos].node
			continue
		}
		child := &indexNode{}
		node.children = append(node.children, indexChild{})
		copy(node.children[pos+1:], node.children[pos:])
		node.children[pos] = indexChild{key: key, node: child}
		node = child
	}
	n := name
	node.terminal = &n
}

func (ix *nameIndex) remove(name ndn.Name) {
	type step struct {
		node *indexNode
		pos  int
	}
	var pathBuf [indexPathDepth]step
	path := pathBuf[:0]
	node := ix.root
	for i := 0; i < name.Len(); i++ {
		pos, ok := node.childAt(string(name.ComponentRef(i)))
		if !ok {
			return
		}
		path = append(path, step{node: node, pos: pos})
		node = node.children[pos].node
	}
	node.terminal = nil
	for i := len(path) - 1; i >= 0; i-- {
		parent, pos := path[i].node, path[i].pos
		child := parent.children[pos].node
		if child.terminal != nil || len(child.children) > 0 {
			break
		}
		copy(parent.children[pos:], parent.children[pos+1:])
		parent.children[len(parent.children)-1] = indexChild{}
		parent.children = parent.children[:len(parent.children)-1]
	}
}

// under returns every stored full name having the given prefix, sorted.
func (ix *nameIndex) under(prefix ndn.Name) []ndn.Name {
	node := ix.root
	for i := 0; i < prefix.Len(); i++ {
		pos, ok := node.childAt(string(prefix.ComponentRef(i)))
		if !ok {
			return nil
		}
		node = node.children[pos].node
	}
	var out []ndn.Name
	collect(node, &out)
	return out
}

// all returns every stored name, sorted.
func (ix *nameIndex) all() []ndn.Name {
	var out []ndn.Name
	collect(ix.root, &out)
	return out
}

func collect(node *indexNode, out *[]ndn.Name) {
	if node.terminal != nil {
		*out = append(*out, *node.terminal)
	}
	for i := range node.children {
		collect(node.children[i].node, out)
	}
}
