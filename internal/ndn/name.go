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
)

// Name is an immutable hierarchical content name. The zero value is the
// root name "/" with no components.
type Name struct {
	components []Component
	// uri caches the canonical rendering; names are immutable after
	// construction so this is safe to precompute.
	uri string
	// hash caches the rolling component hash (see nameview.go); like uri
	// it is precomputed by every constructor. Zero means "not cached"
	// (a literal zero-value Name), in which case Hash recomputes.
	hash uint64
}

// NewName builds a name from raw components. The components are copied.
func NewName(components ...[]byte) Name {
	comps := make([]Component, len(components))
	for i, c := range components {
		cp := make(Component, len(c))
		copy(cp, c)
		comps[i] = cp
	}
	n := Name{components: comps}
	n.uri = n.render()
	n.hash = hashName(comps)
	return n
}

// ParseName parses a canonical URI such as /cnn/news/2013may20. Empty
// internal components (consecutive slashes) are rejected; the bare root
// "/" parses to the empty name. Percent-escapes are decoded.
func ParseName(uri string) (Name, error) {
	if uri == "" || uri[0] != '/' {
		return Name{}, fmt.Errorf("%w: %q must start with '/'", ErrBadURI, uri)
	}
	if uri == "/" {
		return Name{uri: "/", hash: nameHashBasis}, nil
	}
	parts := strings.Split(uri[1:], "/")
	comps := make([]Component, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			return Name{}, fmt.Errorf("%w: %q has an empty component", ErrBadURI, uri)
		}
		decoded, err := unescape(p)
		if err != nil {
			return Name{}, fmt.Errorf("%w: %q: %v", ErrBadURI, uri, err)
		}
		comps = append(comps, decoded)
	}
	n := Name{components: comps}
	n.uri = n.render()
	n.hash = hashName(comps)
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

// Len returns the number of components.
func (n Name) Len() int { return len(n.components) }

// IsEmpty reports whether the name has no components.
func (n Name) IsEmpty() bool { return len(n.components) == 0 }

// Component returns a copy of component i. Callers that only read — map
// keys, comparisons, hashing — should prefer ComponentRef, which avoids
// the copy.
func (n Name) Component(i int) Component {
	c := n.components[i]
	cp := make(Component, len(c))
	copy(cp, c)
	return cp
}

// ComponentRef returns component i without copying. The result aliases
// the name's backing storage and is typed as a view so the viewsafe check
// keeps callers from retaining it; use Component (or Clone on the view)
// when the bytes must outlive the lookup.
//
//ndnlint:viewprop — propagates a view of the name's backing storage
func (n Name) ComponentRef(i int) ComponentView {
	return ComponentView(n.components[i])
}

// Append returns a new name with the given components appended.
func (n Name) Append(components ...[]byte) Name {
	comps := make([]Component, 0, len(n.components)+len(components))
	comps = append(comps, n.components...) // safe: components are never mutated
	for _, c := range components {
		cp := make(Component, len(c))
		copy(cp, c)
		comps = append(comps, cp)
	}
	out := Name{components: comps}
	out.uri = out.render()
	out.hash = hashName(comps)
	return out
}

// AppendString returns a new name with string components appended.
func (n Name) AppendString(components ...string) Name {
	raw := make([][]byte, len(components))
	for i, s := range components {
		raw[i] = []byte(s)
	}
	return n.Append(raw...)
}

// Prefix returns the name truncated to its first k components. k is
// clamped to [0, Len()]. The result shares the receiver's components
// and URI string: escaping is per component, so the prefix's canonical
// URI is the leading bytes of the parent's and nothing is re-rendered.
func (n Name) Prefix(k int) Name {
	if k > len(n.components) {
		k = len(n.components)
	}
	if k <= 0 {
		return Name{components: n.components[:0], uri: "/", hash: nameHashBasis}
	}
	off := 0
	for _, c := range n.components[:k] {
		off += 1 + escapedLen(c)
	}
	out := Name{components: n.components[:k], uri: n.uri[:off]}
	out.hash = hashName(out.components)
	return out
}

// Parent returns the name with its last component removed, and false if
// the name is already empty.
func (n Name) Parent() (Name, bool) {
	if n.IsEmpty() {
		return Name{uri: "/", hash: nameHashBasis}, false
	}
	return n.Prefix(n.Len() - 1), true
}

// Equal reports whether two names have identical components.
func (n Name) Equal(other Name) bool {
	return n.uri == other.uri && len(n.components) == len(other.components)
}

// IsPrefixOf reports whether n is a (non-strict) prefix of other. Per the
// NDN matching rule quoted in Section II, an Interest for X matches
// content X' iff X is a prefix of X'.
func (n Name) IsPrefixOf(other Name) bool {
	if len(n.components) > len(other.components) {
		return false
	}
	for i, c := range n.components {
		if string(c) != string(other.components[i]) {
			return false
		}
	}
	return true
}

// Compare orders names first by component-wise lexicographic comparison,
// shorter prefixes first. Returns -1, 0, or +1.
func (n Name) Compare(other Name) int {
	limit := len(n.components)
	if len(other.components) < limit {
		limit = len(other.components)
	}
	for i := 0; i < limit; i++ {
		if c := bytes.Compare(n.components[i], other.components[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(n.components) < len(other.components):
		return -1
	case len(n.components) > len(other.components):
		return 1
	default:
		return 0
	}
}

// HasPrivateMarker reports whether any component equals the reserved
// producer-driven privacy marker (Section V, "producer-driven" marking).
func (n Name) HasPrivateMarker() bool {
	for _, c := range n.components {
		if string(c) == PrivateComponent {
			return true
		}
	}
	return false
}

// String returns the canonical URI form.
func (n Name) String() string { return n.uri }

// Key returns a map key uniquely identifying the name. It is the
// canonical URI, which is injective because escaping is canonical.
func (n Name) Key() string { return n.uri }

// Hash returns the name's rolling component hash — the key the
// hash-indexed CS and PIT tables use. It equals ParseNameView(...).Hash()
// for the same name on the wire. Constructed names return the cached
// value; a literal zero-value Name recomputes (the root hash is the
// non-zero seed, so a zero hash field can only mean "not cached").
func (n Name) Hash() uint64 {
	if n.hash != 0 {
		return n.hash
	}
	return hashName(n.components)
}

func (n Name) render() string {
	if len(n.components) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, c := range n.components {
		b.WriteByte('/')
		b.WriteString(escape(c))
	}
	return b.String()
}

// escape percent-escapes bytes outside the URI-unreserved set.
func escape(c Component) string {
	const hexdigits = "0123456789ABCDEF"
	var b strings.Builder
	b.Grow(len(c))
	for _, ch := range c {
		if isUnreserved(ch) {
			b.WriteByte(ch)
		} else {
			b.WriteByte('%')
			b.WriteByte(hexdigits[ch>>4])
			b.WriteByte(hexdigits[ch&0x0F])
		}
	}
	return b.String()
}

// escapedLen is len(escape(c)) without building the string.
func escapedLen(c Component) int {
	n := len(c)
	for _, ch := range c {
		if !isUnreserved(ch) {
			n += 2
		}
	}
	return n
}

func unescape(s string) (Component, error) {
	out := make(Component, 0, len(s))
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
