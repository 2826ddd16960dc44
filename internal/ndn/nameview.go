package ndn

import "errors"

// Zero-copy name views. A NameView indexes the component boundaries of a
// Name TLV in place, aliasing the caller's wire buffer instead of copying
// component bytes onto the heap. The lookup path — the latency surface the
// paper's cache-timing adversary measures — parses a view, probes the CS
// and PIT by precomputed hash, and never materializes an owned Name.
//
// Views are governed by the viewsafe contract (ndnlint check #11): a view
// must not outlive the buffer it aliases. It may be read, compared, and
// passed down the call stack, but crossing a retention boundary (struct
// field, package var, map, channel, escaping closure, return from a
// non-propagating function) requires Clone(), the only bridge from view
// to owned Name.

// MaxViewComponents bounds how many components a NameView can index. The
// bound keeps the offset and hash tables in fixed-size arrays so parsing
// a view performs no heap allocation. Names beyond the bound (or whose
// wire form exceeds 64 KiB) fail with ErrViewCapacity; callers fall back
// to the owned decode path.
const MaxViewComponents = 32

var (
	// ErrViewCapacity is returned when a name exceeds MaxViewComponents
	// components or the uint16 offset range; callers should fall back to
	// ParseName/DecodeInterest.
	ErrViewCapacity = errors.New("ndn: name exceeds view capacity")
	// errViewNotName is returned when the outer TLV is not a Name.
	errViewNotName = errors.New("ndn: view parse: outer TLV is not a Name")
	// errViewTrailing is returned for bytes after the Name TLV.
	errViewTrailing = errors.New("ndn: view parse: trailing bytes after Name")
	// errViewBadComponent is returned for a non-component TLV inside a Name.
	errViewBadComponent = errors.New("ndn: view parse: unexpected TLV inside Name")
	// errViewNoName is returned when a packet wire holds no Name element.
	errViewNoName = errors.New("ndn: view parse: packet without a Name")
)

// Name hashing. Both the owned Name path and the view path fold component
// bytes through the same FNV-1a-style mix, so a NameView's hash always
// equals the Hash() of the equivalent owned Name and the two can share
// hash-indexed tables. The length mix makes component boundaries
// significant: /ab/c and /a/bc hash differently.
const (
	nameHashBasis uint64 = 14695981039346656037 // FNV-1a 64-bit offset basis
	nameHashPrime uint64 = 1099511628211        // FNV-1a 64-bit prime
)

// NameHashSeed returns the hash of the empty (root) name — the rolling
// seed from which MixComponentHash folds components one at a time.
func NameHashSeed() uint64 { return nameHashBasis }

// MixComponentHash folds one component into a rolling name hash. Folding
// components 0..k-1 of a name from NameHashSeed yields the same value as
// Prefix(k).Hash() and as NameView.PrefixHash(k); PIT longest-prefix
// lookups exploit this to probe every prefix length in one pass.
func MixComponentHash(h uint64, c []byte) uint64 {
	h = (h ^ uint64(len(c))) * nameHashPrime
	for _, b := range c {
		h = (h ^ uint64(b)) * nameHashPrime
	}
	return h
}

// hashName hashes owned components with the shared fold.
func hashName(components []Component) uint64 {
	h := nameHashBasis
	for _, c := range components {
		h = MixComponentHash(h, c)
	}
	return h
}

// ComponentView is one name component aliasing a wire buffer (or an owned
// Name's backing array, via Name.ComponentRef). It is the non-copying
// counterpart of Component and must not be retained past the buffer's
// lifetime; Clone() copies it into an owned Component.
//
//ndnlint:viewtype — aliases a caller-owned wire buffer
type ComponentView []byte

// Clone copies the viewed bytes into an owned Component.
//
//ndnlint:viewcopy — the bridge from view to owned bytes
func (c ComponentView) Clone() Component {
	cp := make(Component, len(c))
	copy(cp, c)
	return cp
}

// NameView is a hierarchical name parsed in place over a Name TLV. It
// records, per component, the value bounds inside the wire buffer and the
// rolling prefix hash; the struct is all fixed-size arrays plus one slice
// header, so parsing and copying a view never touches the heap.
//
//ndnlint:viewtype — aliases a caller-owned wire buffer
type NameView struct {
	// wire is the Name TLV's value region: the caller-owned bytes every
	// ComponentView returned from this view aliases.
	wire []byte
	// n is the component count.
	n int
	// start and end bound component i's value: wire[start[i]:end[i]].
	start [MaxViewComponents]uint16
	end   [MaxViewComponents]uint16
	// hash[k] is the hash of the k-component prefix; hash[0] is the seed
	// and hash[n] the full-name hash.
	hash [MaxViewComponents + 1]uint64
}

// ParseNameView parses wire — exactly one Name TLV — into a zero-copy
// view. The returned view aliases wire: it is valid only while the caller
// keeps the buffer alive and unmodified.
//
//ndnlint:viewprop — propagates a view of the argument buffer
func ParseNameView(wire []byte) (NameView, error) {
	var v NameView
	typ, value, n, err := readTLV(wire)
	if err != nil {
		return v, err
	}
	if typ != tlvName {
		return v, errViewNotName
	}
	if n != len(wire) {
		return v, errViewTrailing
	}
	return viewNameValue(value)
}

// viewNameValue indexes the component TLVs inside a Name TLV's value.
//
//ndnlint:viewprop — propagates a view of the argument buffer
func viewNameValue(value []byte) (NameView, error) {
	var v NameView
	if len(value) > 0xFFFF {
		return NameView{}, ErrViewCapacity
	}
	v.wire = value
	h := nameHashBasis
	v.hash[0] = h
	off := 0
	for off < len(value) {
		typ, cv, n, err := readTLV(value[off:])
		if err != nil {
			return NameView{}, err
		}
		if typ != tlvComponent {
			return NameView{}, errViewBadComponent
		}
		if v.n >= MaxViewComponents {
			return NameView{}, ErrViewCapacity
		}
		valStart := off + n - len(cv)
		v.start[v.n] = uint16(valStart)
		v.end[v.n] = uint16(valStart + len(cv))
		h = MixComponentHash(h, cv)
		v.n++
		v.hash[v.n] = h
		off += n
	}
	return v, nil
}

// InterestNameView locates the Name element inside an encoded Interest
// and views it in place, without decoding the rest of the packet. This is
// the wire→lookup fast path: the forwarder can classify hit/miss from the
// raw interest buffer alone.
//
//ndnlint:viewprop — propagates a view of the argument buffer
func InterestNameView(wire []byte) (NameView, error) {
	return packetNameView(wire, tlvInterest)
}

// DataNameView locates the Name element inside an encoded Data packet and
// views it in place.
//
//ndnlint:viewprop — propagates a view of the argument buffer
func DataNameView(wire []byte) (NameView, error) {
	return packetNameView(wire, tlvData)
}

// packetNameView finds the first Name TLV inside the given outer packet
// type and views it.
//
//ndnlint:viewprop — propagates a view of the argument buffer
func packetNameView(wire []byte, outer uint64) (NameView, error) {
	var v NameView
	typ, value, _, err := readTLV(wire)
	if err != nil {
		return v, err
	}
	if typ != outer {
		return v, errViewNotName
	}
	for len(value) > 0 {
		ityp, ev, consumed, err := readTLV(value)
		if err != nil {
			return v, err
		}
		if ityp == tlvName {
			return viewNameValue(ev)
		}
		value = value[consumed:]
	}
	return v, errViewNoName
}

// Len returns the number of components.
func (v *NameView) Len() int { return v.n }

// Hash returns the full-name hash, equal to Clone().Hash().
func (v *NameView) Hash() uint64 { return v.hash[v.n] }

// PrefixHash returns the hash of the first k components; k is clamped to
// [0, Len()]. PrefixHash(k) equals Clone().Prefix(k).Hash().
func (v *NameView) PrefixHash(k int) uint64 {
	if k < 0 {
		k = 0
	}
	if k > v.n {
		k = v.n
	}
	return v.hash[k]
}

// Component returns a view of component i, aliasing the wire buffer.
//
//ndnlint:viewprop — propagates a view of the underlying buffer
func (v *NameView) Component(i int) ComponentView {
	return ComponentView(v.wire[v.start[i]:v.end[i]])
}

// EqualName reports whether the viewed name equals the owned name.
func (v *NameView) EqualName(n Name) bool {
	if v.n != len(n.components) {
		return false
	}
	for i := 0; i < v.n; i++ {
		if string(v.wire[v.start[i]:v.end[i]]) != string(n.components[i]) {
			return false
		}
	}
	return true
}

// Clone copies the viewed components into an owned, immutable Name — the
// only sanctioned way to retain what a view names.
//
//ndnlint:viewcopy — the bridge from view to owned Name
func (v *NameView) Clone() Name {
	comps := make([]Component, v.n)
	for i := 0; i < v.n; i++ {
		c := make(Component, int(v.end[i]-v.start[i]))
		copy(c, v.wire[v.start[i]:v.end[i]])
		comps[i] = c
	}
	n := Name{components: comps}
	n.uri = n.render()
	n.hash = v.hash[v.n]
	return n
}

// URI renders the canonical URI form. The returned string is owned.
func (v *NameView) URI() string {
	if v.n == 0 {
		return "/"
	}
	var b []byte
	for i := 0; i < v.n; i++ {
		b = append(b, '/')
		b = append(b, escape(Component(v.wire[v.start[i]:v.end[i]]))...)
	}
	return string(b)
}
