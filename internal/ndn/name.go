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
	// ErrEmptyName is returned when an operation requires at least one
	// component.
	ErrEmptyName = errors.New("ndn: empty name")
	// ErrBadURI is returned when parsing a malformed name URI.
	ErrBadURI = errors.New("ndn: malformed name URI")

	// The name parser's errors are values, so rejecting a malformed wire
	// name on the lookup path allocates nothing.
	errNotName       = errors.New("ndn: outer TLV is not a Name")
	errNameTrailing  = errors.New("ndn: trailing bytes after Name")
	errNoName        = errors.New("ndn: packet without a Name")
	errNotComponent  = fmt.Errorf("%w: element inside Name is not a one-byte component type", ErrBadTLV)
	errLongComponent = fmt.Errorf("%w: component length not in its shortest encoding", ErrBadTLV)
)

// Name is an immutable hierarchical content name, kept in one flat form:
// the value of its Name TLV (every component as a Component TLV in its
// one canonical encoding), the component count, the full-name hash, and
// the canonical URI. The zero value is the root name "/".
//
// An owned Name — from ParseName, NewName, Append, the packet decoders or
// Clone — holds bytes nobody writes, and renders its URI when it is
// built, so String and Key cost nothing. A borrowed Name — from
// ParseNameView, InterestNameView or DataNameView — is the same type
// aliasing the caller's buffer: parsing it allocates nothing, and it is
// valid only while that buffer is unchanged. Its URI is rendered on each
// call. Whatever keeps a name past the buffer's lifetime keeps its Clone.
type Name struct {
	// value is the Name TLV's value: the component TLVs, each with the
	// one-byte type 0x08 and its length in the shortest encoding, so one
	// name has exactly one value and byte equality is name equality.
	value []byte
	// uri is the canonical rendering, rendered once for an owned name;
	// empty for a borrowed name and for the zero value.
	uri string
	// hash is the rolling component hash of the whole name (see
	// MixComponentHash); zero in the zero value.
	hash uint64
	// n is the component count.
	n int
}

// rootName is the owned root, what every constructor returns for a name
// with no components.
var rootName = Name{uri: "/", hash: nameHashBasis}

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

// NewName builds a name from raw components. The components are copied.
func NewName(components ...[]byte) Name { return appendComponents(Name{}, components) }

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
	h := nameHashBasis
	count := 0
	for rest, more := uri[1:], true; more; count++ {
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
		h = MixComponentHash(h, value[len(value)-size:])
	}
	return adopt(value, count, h), nil
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

// ParseNameView parses wire — exactly one Name TLV — into a borrowed
// name aliasing wire, without allocating.
func ParseNameView(wire []byte) (Name, error) {
	typ, value, n, err := readTLV(wire)
	if err != nil {
		return Name{}, err
	}
	if typ != tlvName {
		return Name{}, errNotName
	}
	if n != len(wire) {
		return Name{}, errNameTrailing
	}
	return parseNameValue(value)
}

// InterestNameView finds the Name element inside an encoded Interest and
// borrows it, without decoding the rest of the packet: the forwarder
// classifies hit/miss from the raw interest buffer alone.
func InterestNameView(wire []byte) (Name, error) { return packetName(wire, tlvInterest) }

// DataNameView finds the Name element inside an encoded Data packet and
// borrows it.
func DataNameView(wire []byte) (Name, error) { return packetName(wire, tlvData) }

// packetName borrows the first Name TLV inside the given outer packet
// type.
func packetName(wire []byte, outer uint64) (Name, error) {
	typ, value, _, err := readTLV(wire)
	if err != nil {
		return Name{}, err
	}
	if typ != outer {
		return Name{}, errNotName
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
	h := nameHashBasis
	count := 0
	for rest := value; len(rest) > 0; count++ {
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
		h = MixComponentHash(h, rest[start:end])
		rest = rest[end:]
	}
	return Name{value: value, hash: h, n: count}, nil
}

// decodeName parses a Name TLV's value into an owned name: over a copy
// of value, or over value itself when the decoder owns the buffer.
func decodeName(value []byte, owned bool) (Name, error) {
	n, err := parseNameValue(value)
	if err != nil {
		return Name{}, err
	}
	return adopt(ownBytes(value, owned), n.n, n.hash), nil
}

// adopt makes the owned name over value, which nobody else writes: it
// renders the URI.
func adopt(value []byte, count int, h uint64) Name {
	if len(value) == 0 {
		return rootName
	}
	return Name{value: value, uri: renderURI(value), hash: h, n: count}
}

// appendComponents returns n extended by components, copied: one buffer
// for the value and one for the URI.
func appendComponents[C ~[]byte | ~string](n Name, components []C) Name {
	size := len(n.value)
	for _, c := range components {
		size += tlvSize(tlvComponent, len(c))
	}
	value := append(make([]byte, 0, size), n.value...)
	h := n.Hash()
	for _, c := range components {
		value = appendTLV(value, tlvComponent, c)
		h = MixComponentHash(h, value[len(value)-len(c):])
	}
	return adopt(value, n.n+len(components), h)
}

// Clone returns n owning its bytes: a borrowed name is copied once and
// its URI rendered; an owned name is returned as it is.
func (n Name) Clone() Name {
	if n.uri != "" || len(n.value) == 0 {
		return n
	}
	return adopt(bytes.Clone(n.value), n.n, n.hash)
}

// Len returns the number of components.
func (n Name) Len() int { return n.n }

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
	if i < 0 || i >= n.n {
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
// clamped to [0, Len()]. The result shares the receiver's bytes and, for
// an owned name, its URI string: escaping is per component, so the
// prefix's canonical URI is the leading bytes of the parent's and nothing
// is re-rendered.
func (n Name) Prefix(k int) Name {
	if k >= n.n {
		return n
	}
	if k <= 0 {
		return rootName
	}
	rest := n.value
	h := nameHashBasis
	uriLen := 0
	for i := 0; i < k; i++ {
		var c []byte
		c, rest = nextComponent(rest)
		h = MixComponentHash(h, c)
		uriLen += 1 + escapedLen(c)
	}
	end := len(n.value) - len(rest)
	p := Name{value: n.value[:end:end], hash: h, n: k}
	if n.uri != "" {
		p.uri = n.uri[:uriLen]
	}
	return p
}

// Parent returns the name with its last component removed, and false if
// the name is already empty.
func (n Name) Parent() (Name, bool) {
	if n.n == 0 {
		return rootName, false
	}
	return n.Prefix(n.n - 1), true
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

// privateTLV is the encoding of the PrivateComponent component.
var privateTLV = appendTLV(nil, tlvComponent, PrivateComponent)

// HasPrivateMarker reports whether any component equals the reserved
// producer-driven privacy marker (Section V, "producer-driven" marking).
// Most names do not hold the marker's encoding anywhere, which one search
// of the bytes settles; a name that does is walked, since the bytes may
// sit inside a longer component.
func (n Name) HasPrivateMarker() bool {
	if !bytes.Contains(n.value, privateTLV) {
		return false
	}
	for it := n.Components(); it.Next(); {
		if string(it.Component()) == PrivateComponent {
			return true
		}
	}
	return false
}

// String returns the canonical URI form.
func (n Name) String() string {
	if n.uri != "" {
		return n.uri
	}
	return renderURI(n.value)
}

// Key returns a map key uniquely identifying the name. It is the
// canonical URI, which is injective because escaping is canonical.
func (n Name) Key() string { return n.String() }

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
