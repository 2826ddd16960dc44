// Package table implements the two router-side tables of the NDN node
// model besides the Content Store: the Forwarding Information Base (FIB),
// a longest-prefix-match trie from name prefixes to outgoing faces, and
// the Pending Interest Table (PIT), which records not-yet-satisfied
// interests and collapses duplicates.
package table

import (
	"errors"
	"fmt"
	"sort"

	"ndnprivacy/internal/ndn"
)

// ErrNoRoute is returned when the FIB holds no entry covering a name.
var ErrNoRoute = errors.New("table: no FIB entry matches")

// FaceID identifies a face (interface) of the node owning the table.
type FaceID int

// fibNode is one trie node keyed by name components.
type fibNode struct {
	children map[string]*fibNode
	// faces holds next-hop faces if a prefix terminates here; nil when
	// this node exists only as an interior node.
	faces []FaceID
}

// FIB is a name-prefix routing table with longest-prefix-match lookup.
// The zero value is not usable; construct with NewFIB. FIB is not safe
// for concurrent use; in this codebase each simulated node runs on a
// single event-loop goroutine.
type FIB struct {
	root    *fibNode
	entries int
}

// NewFIB returns an empty FIB.
func NewFIB() *FIB {
	return &FIB{root: &fibNode{}}
}

// Len returns the number of registered prefixes.
func (f *FIB) Len() int { return f.entries }

// Insert registers faces as next hops for the given prefix. Inserting an
// existing prefix replaces its face list. At least one face is required.
func (f *FIB) Insert(prefix ndn.Name, faces ...FaceID) error {
	if len(faces) == 0 {
		return fmt.Errorf("table: prefix %s needs at least one next hop", prefix)
	}
	node := f.root
	for it := prefix.Components(); it.Next(); {
		key := string(it.Component())
		if node.children == nil {
			node.children = make(map[string]*fibNode, 1)
		}
		child, found := node.children[key]
		if !found {
			child = &fibNode{}
			node.children[key] = child
		}
		node = child
	}
	if node.faces == nil {
		f.entries++
	}
	node.faces = append([]FaceID(nil), faces...)
	return nil
}

// Remove deletes the entry for exactly the given prefix. It reports
// whether an entry existed. Interior trie nodes left empty are pruned.
func (f *FIB) Remove(prefix ndn.Name) bool {
	type step struct {
		node *fibNode
		key  string
	}
	path := make([]step, 0, prefix.Len())
	node := f.root
	for it := prefix.Components(); it.Next(); {
		key := string(it.Component())
		child, found := node.children[key]
		if !found {
			return false
		}
		path = append(path, step{node: node, key: key})
		node = child
	}
	if node.faces == nil {
		return false
	}
	node.faces = nil
	f.entries--
	// Prune empty leaves bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		child := path[i].node.children[path[i].key]
		if child.faces != nil || len(child.children) > 0 {
			break
		}
		delete(path[i].node.children, path[i].key)
	}
	return true
}

// Lookup returns the next-hop faces of the longest registered prefix of
// name, or ErrNoRoute. The result is the caller's own copy.
func (f *FIB) Lookup(name ndn.Name) ([]FaceID, error) {
	best := f.NextHops(name)
	if best == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, name)
	}
	return append([]FaceID(nil), best...), nil
}

// NextHops is Lookup for the forwarding pipeline: it returns the
// table's own face list — read-only, valid until the next Insert or
// Remove — and nil when no prefix covers name, so a per-interest lookup
// copies and allocates nothing.
func (f *FIB) NextHops(name ndn.Name) []FaceID {
	node := f.root
	best := node.faces
	for it := name.Components(); it.Next(); {
		child, found := node.children[string(it.Component())]
		if !found {
			break
		}
		node = child
		if node.faces != nil {
			best = node.faces
		}
	}
	return best
}

// LookupPrefixLen returns, alongside Lookup's result, the length of the
// matched prefix, for diagnostics.
func (f *FIB) LookupPrefixLen(name ndn.Name) ([]FaceID, int, error) {
	node := f.root
	best := node.faces
	bestLen, depth := 0, 0
	for it := name.Components(); it.Next(); {
		child, found := node.children[string(it.Component())]
		if !found {
			break
		}
		node = child
		depth++
		if node.faces != nil {
			best = node.faces
			bestLen = depth
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoRoute, name)
	}
	return append([]FaceID(nil), best...), bestLen, nil
}

// Prefixes returns the canonical URI of every registered prefix in
// sorted order, mainly for tests and debugging. Each is rendered from
// the name its trie path spells, so component bytes are escaped.
func (f *FIB) Prefixes() []string {
	var out []string
	var walk func(node *fibNode, prefix ndn.Name)
	walk = func(node *fibNode, prefix ndn.Name) {
		if node.faces != nil {
			out = append(out, prefix.String())
		}
		for key, child := range node.children {
			walk(child, prefix.AppendString(key))
		}
	}
	walk(f.root, ndn.Name{})
	sort.Strings(out)
	return out
}
