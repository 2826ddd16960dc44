// Package ndn implements the Named-Data Networking primitives the paper's
// system is built on: hierarchical content names, Interest and Data
// packets, a TLV wire codec, HMAC-based content signatures, content
// segmentation, and the unpredictable-name scheme of Section V-A.
//
// Names follow the NDN convention of ordered, opaque components rendered
// as /comp1/comp2/...; component bytes are arbitrary, and the URI form
// percent-escapes anything outside the unreserved set.
package ndn

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Component holds one opaque name component. The network never interprets
// component bytes; boundaries are what matter.
type Component []byte

// PrivateComponent is the reserved producer-driven privacy marker from
// Section V: content whose name carries this component is treated as
// private by caching routers.
const PrivateComponent = "private"

var (
	// ErrBadURI is returned when parsing a malformed name URI.
	ErrBadURI = errors.New("ndn: malformed name URI")

	// The name parser's errors are values, so rejecting a malformed wire
	// name on the lookup path allocates nothing.
	errNotInterest   = errors.New("ndn: outer TLV is not an Interest")
	errNoName        = errors.New("ndn: packet without a Name")
	errNotComponent  = fmt.Errorf("%w: element inside Name is not a one-byte component type", ErrBadTLV)
	errLongComponent = fmt.Errorf("%w: component length not in its shortest encoding", ErrBadTLV)
)

// Name is an immutable hierarchical content name, kept in one flat form:
// the value of its Name TLV (every component as a Component TLV in its
// one canonical encoding), the component count, the full-name hash and
// whether a component is the privacy marker. The zero value is the root
// name "/". Tables key a name by its hash and compare its bytes; nothing
// on the packet path renders its URI, which String builds on each call.
//
// An owned Name — from ParseName, Append, the packet decoders or
// Clone — holds bytes nobody writes. A borrowed Name — from
// InterestNameView — is the same type aliasing the caller's buffer:
// parsing it allocates nothing, and it is valid only while that buffer
// is unchanged. Whatever keeps a name past the buffer's lifetime keeps
// its Clone.
type Name struct {
	// value is the Name TLV's value: the component TLVs, each with the
	// one-byte type 0x08 and its length in the shortest encoding, so one
	// name has exactly one value and byte equality is name equality.
	value []byte
	// hash is the rolling component hash of the whole name (see
	// MixComponentHash); zero in the zero value.
	hash uint64
	// n is the component count.
	n int32
	// private records that a component equals PrivateComponent; the walk
	// that builds the name finds it.
	private bool
}

// rootName is the root with its hash, what every constructor returns for
// a name with no components.
var rootName = Name{hash: nameHashBasis}

// Name hashing: every component is folded through an FNV-1a-style mix in
// order. The length mix makes component boundaries significant: /ab/c
// and /a/bc hash differently.
const (
	nameHashBasis uint64 = 14695981039346656037 // FNV-1a 64-bit offset basis
	nameHashPrime uint64 = 1099511628211        // FNV-1a 64-bit prime
)

// NameHashSeed returns the hash of the empty (root) name — the rolling
// seed from which MixComponentHash folds components one at a time.
func NameHashSeed() uint64 { return nameHashBasis }

// MixComponentHash folds one component into a rolling name hash. Folding
// components 0..k-1 of a name from NameHashSeed yields Prefix(k).Hash();
// PIT longest-prefix lookups exploit this to probe every prefix length
// in one pass.
func MixComponentHash(h uint64, c []byte) uint64 {
	h = (h ^ uint64(len(c))) * nameHashPrime
	for _, b := range c {
		h = (h ^ uint64(b)) * nameHashPrime
	}
	return h
}

// ParseName parses a canonical URI such as /cnn/news/2013may20. Empty
// internal components (consecutive slashes) are rejected; the bare root
// "/" parses to the empty name. Percent-escapes are decoded.
func ParseName(uri string) (Name, error) {
	if uri == "" || uri[0] != '/' {
		return Name{}, fmt.Errorf("%w: %q must start with '/'", ErrBadURI, uri)
	}
	if uri == "/" {
		return rootName, nil
	}
	// A component's TLV header is two bytes where the URI has one '/'
	// (three more when the component is 253 bytes or longer).
	value := make([]byte, 0, len(uri)+strings.Count(uri, "/"))
	n := Name{hash: nameHashBasis}
	for rest, more := uri[1:], true; more; n.n++ {
		var part string
		part, rest, more = strings.Cut(rest, "/")
		if part == "" {
			return Name{}, fmt.Errorf("%w: %q has an empty component", ErrBadURI, uri)
		}
		// Every escape that decodes is three bytes for one; one that does
		// not fails below, whatever header went before it.
		size := max(0, len(part)-2*strings.Count(part, "%"))
		value = appendTLVHeader(value, tlvComponent, size)
		var err error
		if value, err = appendUnescaped(value, part); err != nil {
			return Name{}, fmt.Errorf("%w: %q: %v", ErrBadURI, uri, err)
		}
		n.add(value[len(value)-size:])
	}
	n.value = value
	return n, nil
}

// MustParseName is ParseName that panics on error, for use with constant
// names in tests and examples.
func MustParseName(uri string) Name {
	n, err := ParseName(uri)
	if err != nil {
		panic(err)
	}
	return n
}

// InterestNameView finds the Name element inside an encoded Interest and
// borrows it, without decoding the rest of the packet: the forwarder
// classifies hit/miss from the raw interest buffer alone.
func InterestNameView(wire []byte) (Name, error) {
	typ, value, _, err := readTLV(wire)
	if err != nil {
		return Name{}, err
	}
	if typ != tlvInterest {
		return Name{}, errNotInterest
	}
	for len(value) > 0 {
		ityp, ev, consumed, err := readTLV(value)
		if err != nil {
			return Name{}, err
		}
		if ityp == tlvName {
			return parseNameValue(ev)
		}
		value = value[consumed:]
	}
	return Name{}, errNoName
}

// parseNameValue borrows a Name TLV's value: it counts and hashes the
// components in place. Every decoder of a name comes through here, and
// it accepts each component only in its one canonical encoding — type
// 0x08 in one byte, length in its shortest form — so a name has one
// value, and two encodings of it can never become two table entries.
func parseNameValue(value []byte) (Name, error) {
	n := Name{value: value, hash: nameHashBasis}
	for rest := value; len(rest) > 0; n.n++ {
		if rest[0] != byte(tlvComponent) {
			return Name{}, errNotComponent
		}
		length, ln, err := readVarNum(rest[1:])
		if err != nil {
			return Name{}, err
		}
		if ln != varNumSize(length) {
			return Name{}, errLongComponent
		}
		start := 1 + ln
		if uint64(len(rest)-start) < length {
			return Name{}, ErrTruncated
		}
		end := start + int(length)
		n.add(rest[start:end])
		rest = rest[end:]
	}
	return n, nil
}

// add folds one more component into the name's hash and privacy marker;
// the caller counts it.
func (n *Name) add(c []byte) {
	n.hash = MixComponentHash(n.hash, c)
	n.private = n.private || string(c) == PrivateComponent
}

// decodeName parses a Name TLV's value into an owned name: over a copy
// of value, or over value itself when the decoder owns the buffer.
func decodeName(value []byte, owned bool) (Name, error) {
	n, err := parseNameValue(value)
	if err != nil {
		return Name{}, err
	}
	if n.n == 0 {
		return rootName, nil
	}
	n.value = ownBytes(value, owned)
	return n, nil
}

// appendComponents returns n extended by components, copied into one
// buffer.
func appendComponents[C ~[]byte | ~string](n Name, components []C) Name {
	size := len(n.value)
	for _, c := range components {
		size += tlvSize(tlvComponent, len(c))
	}
	out := Name{value: append(make([]byte, 0, size), n.value...), hash: n.Hash(), n: n.n, private: n.private}
	for _, c := range components {
		out.value = appendTLV(out.value, tlvComponent, c)
		out.add(out.value[len(out.value)-len(c):])
		out.n++
	}
	return out
}

// Clone returns n over a copy of its bytes: the one copy a borrowed name
// needs to outlive its buffer.
func (n Name) Clone() Name {
	if n.n == 0 {
		return rootName
	}
	n.value = bytes.Clone(n.value)
	return n
}

// Len returns the number of components.
func (n Name) Len() int { return int(n.n) }

// IsEmpty reports whether the name has no components.
func (n Name) IsEmpty() bool { return n.n == 0 }

// A ComponentIter walks a name's components in order without copying
// them:
//
//	for it := name.Components(); it.Next(); {
//		use(it.Component())
//	}
type ComponentIter struct{ rest, cur []byte }

// Components returns an iterator over n's components.
func (n Name) Components() ComponentIter { return ComponentIter{rest: n.value} }

// Next advances to the next component and reports whether there was one.
func (it *ComponentIter) Next() bool {
	if len(it.rest) == 0 {
		return false
	}
	it.cur, it.rest = nextComponent(it.rest)
	return true
}

// Component returns the current component, aliasing the name's bytes.
func (it *ComponentIter) Component() Component { return it.cur }

// nextComponent splits the first component off a name value the parser
// has accepted: a one-byte type, then the length in one byte below 253,
// or 0xFD, 0xFE or 0xFF and that length in 2, 4 or 8 big-endian bytes.
func nextComponent(value []byte) (c, rest []byte) {
	start, length := 2, int(value[1])
	if length >= 253 {
		start += 2 << (length - 253)
		length = 0
		for _, b := range value[2:start] {
			length = length<<8 | int(b)
		}
	}
	return value[start : start+length], value[start+length:]
}

// Component returns a copy of component i. Callers that only read — map
// keys, comparisons, hashing — should prefer ComponentRef, which avoids
// the copy.
func (n Name) Component(i int) Component { return bytes.Clone(n.ComponentRef(i)) }

// ComponentRef returns component i without copying: the result aliases
// the name's bytes, which for a borrowed name are the caller's buffer.
// Walking every component is Components' job; this finds one.
func (n Name) ComponentRef(i int) Component {
	if i < 0 || i >= n.Len() {
		panic(fmt.Sprintf("ndn: component %d of a %d-component name", i, n.n))
	}
	it := n.Components()
	for it.Next() && i > 0 {
		i--
	}
	return it.Component()
}

// Append returns a new name with the given components appended.
func (n Name) Append(components ...[]byte) Name { return appendComponents(n, components) }

// AppendString returns a new name with string components appended.
func (n Name) AppendString(components ...string) Name { return appendComponents(n, components) }

// Prefix returns the name truncated to its first k components. k is
// clamped to [0, Len()]. The result shares the receiver's bytes, so
// walking every prefix of a name allocates nothing.
func (n Name) Prefix(k int) Name {
	if k >= n.Len() {
		return n
	}
	if k <= 0 {
		return rootName
	}
	p := Name{hash: nameHashBasis, n: int32(k)}
	rest := n.value
	for i := 0; i < k; i++ {
		var c []byte
		c, rest = nextComponent(rest)
		p.add(c)
	}
	end := len(n.value) - len(rest)
	p.value = n.value[:end:end]
	return p
}

// Parent returns the name with its last component removed, and false if
// the name is already empty.
func (n Name) Parent() (Name, bool) {
	if n.n == 0 {
		return rootName, false
	}
	return n.Prefix(n.Len() - 1), true
}

// Equal reports whether two names have identical components.
func (n Name) Equal(other Name) bool { return bytes.Equal(n.value, other.value) }

// IsPrefixOf reports whether n is a (non-strict) prefix of other. Per the
// NDN matching rule quoted in Section II, an Interest for X matches
// content X' iff X is a prefix of X'. A value is a sequence of whole
// component TLVs, so a leading run of other's bytes equal to n's ends on
// one of other's component boundaries.
func (n Name) IsPrefixOf(other Name) bool { return bytes.HasPrefix(other.value, n.value) }

// Compare orders names first by component-wise lexicographic comparison,
// shorter prefixes first. Returns -1, 0, or +1.
func (n Name) Compare(other Name) int {
	a, b := n.value, other.value
	for len(a) > 0 && len(b) > 0 {
		var ca, cb []byte
		ca, a = nextComponent(a)
		cb, b = nextComponent(b)
		if c := bytes.Compare(ca, cb); c != 0 {
			return c
		}
	}
	switch {
	case len(a) == len(b):
		return 0
	case len(a) == 0:
		return -1
	default:
		return 1
	}
}

// HasPrivateMarker reports whether any component equals the reserved
// producer-driven privacy marker (Section V, "producer-driven" marking).
// The walk that built the name found it, so asking costs nothing.
func (n Name) HasPrivateMarker() bool { return n.private }

// String returns the canonical URI form, rendered on each call: it is
// for output, and no table keys on it.
func (n Name) String() string { return renderURI(n.value) }

// Hash returns the name's rolling component hash — the key the
// hash-indexed CS and PIT tables use. Every constructor computes it; the
// zero value is the root, whose hash is the seed.
func (n Name) Hash() uint64 {
	if len(n.value) == 0 {
		return nameHashBasis
	}
	return n.hash
}

// renderURI renders a name value's canonical URI into one string.
func renderURI(value []byte) string {
	if len(value) == 0 {
		return "/"
	}
	size := 0
	for rest := value; len(rest) > 0; {
		var c []byte
		c, rest = nextComponent(rest)
		size += 1 + escapedLen(c)
	}
	var b strings.Builder
	b.Grow(size)
	for rest := value; len(rest) > 0; {
		var c []byte
		c, rest = nextComponent(rest)
		b.WriteByte('/')
		writeEscaped(&b, c)
	}
	return b.String()
}

// writeEscaped writes c with the bytes outside the URI-unreserved set
// percent-escaped.
func writeEscaped(b *strings.Builder, c []byte) {
	const hexdigits = "0123456789ABCDEF"
	for _, ch := range c {
		if isUnreserved(ch) {
			b.WriteByte(ch)
		} else {
			b.WriteByte('%')
			b.WriteByte(hexdigits[ch>>4])
			b.WriteByte(hexdigits[ch&0x0F])
		}
	}
}

// escapedLen is the length writeEscaped writes for c.
func escapedLen(c []byte) int {
	n := len(c)
	for _, ch := range c {
		if !isUnreserved(ch) {
			n += 2
		}
	}
	return n
}

// appendUnescaped appends s with its percent-escapes decoded.
func appendUnescaped(out []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			out = append(out, s[i])
			continue
		}
		if i+2 >= len(s) {
			return nil, errors.New("truncated percent-escape")
		}
		hi, ok1 := fromHex(s[i+1])
		lo, ok2 := fromHex(s[i+2])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("invalid percent-escape %q", s[i:i+3])
		}
		out = append(out, hi<<4|lo)
		i += 2
	}
	return out, nil
}

func fromHex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

func isUnreserved(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '.' || c == '_' || c == '~':
		return true
	default:
		return false
	}
}
