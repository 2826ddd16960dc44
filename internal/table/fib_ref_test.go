package table

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ndnprivacy/internal/ndn"
)

// refFIB is the FIB as it was before it became one hash probe per prefix
// length: a trie with a map of component strings per node. It is kept as
// the reference TestFIBMatchesTrieReference holds the FIB to.
type refFIB struct {
	root    *refFIBNode
	entries int
}

// refFIBNode is one trie node; faces is nil on an interior node.
type refFIBNode struct {
	children map[string]*refFIBNode
	faces    []FaceID
}

func newRefFIB() *refFIB { return &refFIB{root: &refFIBNode{}} }

func (f *refFIB) Len() int { return f.entries }

func (f *refFIB) Insert(prefix ndn.Name, faces ...FaceID) error {
	if len(faces) == 0 {
		return fmt.Errorf("table: prefix %s needs at least one next hop", prefix)
	}
	node := f.root
	for it := prefix.Components(); it.Next(); {
		key := string(it.Component())
		if node.children == nil {
			node.children = make(map[string]*refFIBNode, 1)
		}
		child, found := node.children[key]
		if !found {
			child = &refFIBNode{}
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

func (f *refFIB) Remove(prefix ndn.Name) bool {
	type step struct {
		node *refFIBNode
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
	for i := len(path) - 1; i >= 0; i-- {
		child := path[i].node.children[path[i].key]
		if child.faces != nil || len(child.children) > 0 {
			break
		}
		delete(path[i].node.children, path[i].key)
	}
	return true
}

func (f *refFIB) NextHops(name ndn.Name) []FaceID {
	best, _ := f.longest(name)
	return best
}

func (f *refFIB) LookupPrefixLen(name ndn.Name) ([]FaceID, int, error) {
	best, k := f.longest(name)
	if best == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoRoute, name)
	}
	return append([]FaceID(nil), best...), k, nil
}

func (f *refFIB) longest(name ndn.Name) ([]FaceID, int) {
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
	return best, bestLen
}

func (f *refFIB) Prefixes() []string {
	var out []string
	var walk func(node *refFIBNode, prefix ndn.Name)
	walk = func(node *refFIBNode, prefix ndn.Name) {
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

// TestFIBMatchesTrieReference drives the FIB and the trie it replaced
// through one seeded sequence of Insert, Remove, NextHops and
// LookupPrefixLen, and compares every result and, periodically, Len and
// Prefixes. Names are drawn from a small pool so routes share prefixes,
// nest and get removed under one another; the pool has escaped bytes, a
// component holding a slash, the privacy marker, components of 253 and
// 300 bytes (whose TLV lengths take three bytes), and the root.
func TestFIBMatchesTrieReference(t *testing.T) {
	pool := [][]byte{
		[]byte("a"), []byte("b"), []byte("a/b"), []byte("%"), {0}, {0xFF, 0xFE},
		[]byte("private"), bytes.Repeat([]byte("x"), 253), bytes.Repeat([]byte("y"), 300), []byte("a b"),
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		randName := func(maxLen int) ndn.Name {
			comps := make([][]byte, rng.Intn(maxLen+1))
			for i := range comps {
				comps[i] = pool[rng.Intn(len(pool))]
			}
			return ndn.Name{}.Append(comps...)
		}
		fib, ref := NewFIB(), newRefFIB()
		for op := 0; op < 20000; op++ {
			switch rng.Intn(5) {
			case 0:
				prefix := randName(3)
				faces := []FaceID{FaceID(rng.Intn(4)), FaceID(op)}[:1+rng.Intn(2)]
				if err, want := fib.Insert(prefix, faces...), ref.Insert(prefix, faces...); (err == nil) != (want == nil) {
					t.Fatalf("seed %d op %d: Insert(%s) = %v, reference %v", seed, op, prefix, err, want)
				}
			case 1:
				prefix := randName(3)
				if got, want := fib.Remove(prefix), ref.Remove(prefix); got != want {
					t.Fatalf("seed %d op %d: Remove(%s) = %t, reference %t", seed, op, prefix, got, want)
				}
			case 2, 3:
				name := randName(6)
				if got, want := fib.NextHops(name), ref.NextHops(name); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: NextHops(%s) = %v, reference %v", seed, op, name, got, want)
				}
			case 4:
				name := randName(6)
				got, gotLen, gotErr := fib.LookupPrefixLen(name)
				want, wantLen, wantErr := ref.LookupPrefixLen(name)
				if !reflect.DeepEqual(got, want) || gotLen != wantLen || errors.Is(gotErr, ErrNoRoute) != errors.Is(wantErr, ErrNoRoute) {
					t.Fatalf("seed %d op %d: LookupPrefixLen(%s) = %v, %d, %v; reference %v, %d, %v",
						seed, op, name, got, gotLen, gotErr, want, wantLen, wantErr)
				}
			}
			if fib.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, fib.Len(), ref.Len())
			}
			if op%500 == 0 {
				if got, want := fib.Prefixes(), ref.Prefixes(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: Prefixes = %q, reference %q", seed, op, got, want)
				}
			}
		}
	}
}
