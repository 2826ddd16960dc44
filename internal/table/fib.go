// Package table implements the two router-side tables of the NDN node
// model besides the Content Store: the Forwarding Information Base (FIB),
// a longest-prefix-match table from name prefixes to outgoing faces, and
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

// FIB is a name-prefix routing table with longest-prefix-match lookup:
// a map from each registered prefix, by hash and bytes, to its next
// hops. A lookup folds the name's components into a rolling hash once
// (ndn.MixComponentHash) and probes only the prefix lengths some route
// has, longest first, so it costs at most one hash probe per such length
// and renders nothing. The zero value is an empty FIB, as NewFIB's is.
// FIB is not safe for concurrent use; in this codebase each simulated
// node runs on a single event-loop goroutine.
type FIB struct {
	routes ndn.NameMap[[]FaceID]
	// lens[k] counts the registered prefixes of k components; it ends at
	// the longest one.
	lens []int
}

// NewFIB returns an empty FIB.
func NewFIB() *FIB { return &FIB{} }

// Len returns the number of registered prefixes.
func (f *FIB) Len() int { return f.routes.Len() }

// Insert registers faces as next hops for the given prefix. Inserting an
// existing prefix replaces its face list. At least one face is required.
// The table keeps copies of prefix and faces.
func (f *FIB) Insert(prefix ndn.Name, faces ...FaceID) error {
	if len(faces) == 0 {
		return fmt.Errorf("table: prefix %s needs at least one next hop", prefix)
	}
	if _, found := f.routes.Get(prefix); !found {
		for len(f.lens) <= prefix.Len() {
			f.lens = append(f.lens, 0)
		}
		f.lens[prefix.Len()]++
	}
	f.routes.Put(prefix.Clone(), append([]FaceID(nil), faces...))
	return nil
}

// Remove deletes the entry for exactly the given prefix. It reports
// whether an entry existed.
func (f *FIB) Remove(prefix ndn.Name) bool {
	if _, found := f.routes.Delete(prefix); !found {
		return false
	}
	f.lens[prefix.Len()]--
	for len(f.lens) > 0 && f.lens[len(f.lens)-1] == 0 {
		f.lens = f.lens[:len(f.lens)-1]
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
	best, _ := f.longest(name)
	return best
}

// LookupPrefixLen returns, alongside Lookup's result, the length of the
// matched prefix, for diagnostics.
func (f *FIB) LookupPrefixLen(name ndn.Name) ([]FaceID, int, error) {
	best, k := f.longest(name)
	if best == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoRoute, name)
	}
	return append([]FaceID(nil), best...), k, nil
}

// prefixProbe is one prefix length a lookup probes, with the hash of
// the name's prefix of that length.
type prefixProbe struct {
	h uint64
	k int
}

// longest returns the next hops of name's longest registered prefix and
// that prefix's length; nil when no prefix covers name. One pass over
// name's components hashes every prefix length some route has, and the
// probes then run from the longest down, so the first hit is the
// answer. Sixteen such lengths fit on the stack.
func (f *FIB) longest(name ndn.Name) ([]FaceID, int) {
	var buf [16]prefixProbe
	probes := buf[:0]
	h := ndn.NameHashSeed()
	comps := name.Components()
	for k := 0; k < len(f.lens); k++ {
		if f.lens[k] > 0 {
			probes = append(probes, prefixProbe{h: h, k: k})
		}
		if !comps.Next() {
			break
		}
		h = ndn.MixComponentHash(h, comps.Component())
	}
	for i := len(probes) - 1; i >= 0; i-- {
		if faces, found := f.routes.GetPrefix(probes[i].h, probes[i].k, name); found {
			return faces, probes[i].k
		}
	}
	return nil, 0
}

// Prefixes returns the canonical URI of every registered prefix in
// sorted order, mainly for tests and debugging; component bytes are
// escaped.
func (f *FIB) Prefixes() []string {
	var out []string
	f.routes.Range(func(prefix ndn.Name, _ []FaceID) { out = append(out, prefix.String()) })
	sort.Strings(out)
	return out
}
