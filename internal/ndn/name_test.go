package ndn

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestParseNameRoundTrip(t *testing.T) {
	cases := []string{
		"/",
		"/cnn",
		"/cnn/news/2013may20",
		"/youtube/alice/video-749.avi/137",
		"/a/b/c/d/e/f/g/h",
	}
	for _, uri := range cases {
		t.Run(uri, func(t *testing.T) {
			n, err := ParseName(uri)
			if err != nil {
				t.Fatalf("ParseName(%q): %v", uri, err)
			}
			if got := n.String(); got != uri {
				t.Errorf("round trip: got %q, want %q", got, uri)
			}
		})
	}
}

func TestParseNameRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"cnn/news",
		"/cnn//news",
		"/cnn/",
		"/cnn/%2",
		"/cnn/%zz",
	}
	for _, uri := range cases {
		if _, err := ParseName(uri); err == nil {
			t.Errorf("ParseName(%q) succeeded, want error", uri)
		}
	}
}

func TestNameEscaping(t *testing.T) {
	n := NewName([]byte("a/b"), []byte{0x00, 0xFF})
	uri := n.String()
	parsed, err := ParseName(uri)
	if err != nil {
		t.Fatalf("ParseName(%q): %v", uri, err)
	}
	if !parsed.Equal(n) {
		t.Errorf("escape round trip: %q != %q", parsed, n)
	}
	if string(parsed.Component(0)) != "a/b" {
		t.Errorf("component 0 = %q, want a/b", parsed.Component(0))
	}
}

func TestMustParseNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseName on bad input did not panic")
		}
	}()
	MustParseName("not-a-name")
}

func TestNameRootProperties(t *testing.T) {
	root := MustParseName("/")
	if !root.IsEmpty() || root.Len() != 0 {
		t.Errorf("root name should be empty, got len %d", root.Len())
	}
	if root.String() != "/" {
		t.Errorf("root renders as %q, want /", root.String())
	}
	if _, ok := root.Parent(); ok {
		t.Error("root.Parent() reported ok")
	}
}

func TestNameAppendImmutable(t *testing.T) {
	base := MustParseName("/alice")
	child := base.AppendString("skype", "0")
	if base.Len() != 1 {
		t.Errorf("Append mutated receiver: len = %d", base.Len())
	}
	if child.String() != "/alice/skype/0" {
		t.Errorf("child = %q, want /alice/skype/0", child)
	}
}

func TestNameAppendCopiesInput(t *testing.T) {
	buf := []byte("xyz")
	n := NewName().Append(buf)
	buf[0] = 'Q'
	if string(n.Component(0)) != "xyz" {
		t.Errorf("Append aliased caller buffer: %q", n.Component(0))
	}
}

func TestNameComponentCopies(t *testing.T) {
	n := MustParseName("/abc")
	c := n.Component(0)
	c[0] = 'Z'
	if n.String() != "/abc" {
		t.Errorf("Component exposed internal buffer: %q", n)
	}
}

func TestNamePrefixClamping(t *testing.T) {
	n := MustParseName("/a/b/c")
	if got := n.Prefix(-1); !got.IsEmpty() {
		t.Errorf("Prefix(-1) = %q, want /", got)
	}
	if got := n.Prefix(10); !got.Equal(n) {
		t.Errorf("Prefix(10) = %q, want %q", got, n)
	}
	if got := n.Prefix(2).String(); got != "/a/b" {
		t.Errorf("Prefix(2) = %q, want /a/b", got)
	}
}

func TestIsPrefixOf(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"/", "/cnn", true},
		{"/cnn/news", "/cnn/news/2013may20", true},
		{"/cnn/news", "/cnn/news", true},
		{"/cnn/news/2013may20", "/cnn/news", false},
		{"/cnn", "/cnnn", false},
		{"/cnn/sports", "/cnn/news", false},
	}
	for _, tc := range cases {
		a, b := MustParseName(tc.a), MustParseName(tc.b)
		if got := a.IsPrefixOf(b); got != tc.want {
			t.Errorf("(%q).IsPrefixOf(%q) = %t, want %t", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNameCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"/a", "/a", 0},
		{"/a", "/b", -1},
		{"/b", "/a", 1},
		{"/a", "/a/b", -1},
		{"/a/b", "/a", 1},
		{"/", "/a", -1},
	}
	for _, tc := range cases {
		a, b := MustParseName(tc.a), MustParseName(tc.b)
		if got := a.Compare(b); got != tc.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// The marker is found by the walk that builds a name, whichever builds
// it: parsing a URI, appending components, decoding a packet owned or
// borrowed, taking a prefix.
func TestHasPrivateMarker(t *testing.T) {
	marked := MustParseName("/bob/docs/private/tax")
	wire := EncodeInterest(NewInterest(marked, 1))
	decoded, err := DecodeInterest(wire)
	if err != nil {
		t.Fatal(err)
	}
	borrowed, err := InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	for label, n := range map[string]Name{
		"ParseName":      marked,
		"AppendString":   MustParseName("/bob/docs").AppendString("private", "tax"),
		"NewName":        NewName([]byte("private")),
		"DecodeInterest": decoded.Name,
		"borrowed":       borrowed,
		"Prefix(3)":      marked.Prefix(3),
		"Clone":          borrowed.Clone(),
	} {
		if !n.HasPrivateMarker() {
			t.Errorf("%s: %s has a /private/ component, not detected", label, n)
		}
	}
	for _, n := range []Name{
		MustParseName("/bob/docs/privateer"),
		MustParseName("/bob/private%00"),
		NewName([]byte("a/private")),
		MustParseName("/"),
		marked.Prefix(2),
	} {
		if n.HasPrivateMarker() {
			t.Errorf("%s reported private", n)
		}
	}
}

func TestNameParent(t *testing.T) {
	n := MustParseName("/a/b/c")
	p, ok := n.Parent()
	if !ok || p.String() != "/a/b" {
		t.Errorf("Parent = %q/%t, want /a/b,true", p, ok)
	}
}

// Property: parse(render(name)) == name for arbitrary component bytes.
func TestNameRenderParseProperty(t *testing.T) {
	f := func(comps [][]byte) bool {
		// Skip empty components, which are unrepresentable by design.
		for _, c := range comps {
			if len(c) == 0 {
				return true
			}
		}
		n := NewName(comps...)
		parsed, err := ParseName(n.String())
		if err != nil {
			return false
		}
		return parsed.Equal(n) && parsed.Compare(n) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Prefix slices the parent's bytes and re-derives hash and privacy
// marker; every k must agree with a name built from the same components
// the slow way, for names whose URI bytes and wire bytes differ
// (percent-escapes) and whose marker sits at different depths.
func TestNamePrefixMatchesRendered(t *testing.T) {
	names := []Name{
		{},
		MustParseName("/"),
		MustParseName("/a/b/c"),
		MustParseName("/%00/a%2Fb/%25/%FF%FE/plain"),
		NewName([]byte("%"), []byte{0, 1, 2}, []byte("~-._"), []byte("a b/c"), []byte{0xC3, 0xA9}),
		MustParseName("/bob/private/tax/2013"),
	}
	for _, n := range names {
		for k := -1; k <= n.Len()+1; k++ {
			clamped := k
			if clamped < 0 {
				clamped = 0
			}
			if clamped > n.Len() {
				clamped = n.Len()
			}
			raw := make([][]byte, clamped)
			for i := range raw {
				raw[i] = n.Component(i)
			}
			want := NewName(raw...)
			got := n.Prefix(k)
			if got.String() != want.String() || got.HasPrivateMarker() != want.HasPrivateMarker() {
				t.Errorf("%q.Prefix(%d): URI %q, want %q", n, k, got, want)
			}
			if got.Hash() != want.Hash() {
				t.Errorf("%q.Prefix(%d): hash %#x, want %#x", n, k, got.Hash(), want.Hash())
			}
			if !got.Equal(want) || !want.Equal(got) || got.Len() != want.Len() || got.Compare(want) != 0 {
				t.Errorf("%q.Prefix(%d) = %q, not equal to the rendered %q", n, k, got, want)
			}
			if reparsed, err := ParseName(got.String()); err != nil || !reparsed.Equal(want) {
				t.Errorf("%q.Prefix(%d) = %q does not re-parse to itself (%v)", n, k, got, err)
			}
		}
	}
}

// Property: Prefix(k).IsPrefixOf(n) holds for every k.
func TestNamePrefixProperty(t *testing.T) {
	f := func(comps [][]byte, k uint8) bool {
		for _, c := range comps {
			if len(c) == 0 {
				return true
			}
		}
		n := NewName(comps...)
		return n.Prefix(int(k) % (n.Len() + 1)).IsPrefixOf(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric.
func TestNameCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b [][]byte) bool {
		for _, c := range append(append([][]byte{}, a...), b...) {
			if len(c) == 0 {
				return true
			}
		}
		na, nb := NewName(a...), NewName(b...)
		return na.Compare(nb) == -nb.Compare(na)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every spelling of the root is one name: the zero value, the parsed
// and built roots, and the root a prefix walk or Parent reaches agree on
// Equal, String, Compare and Hash — a table that verifies a hash hit
// with Equal must find any of them under any other.
func TestRootNameForms(t *testing.T) {
	one := MustParseName("/a")
	parent, _ := one.Parent()
	rootParent, _ := MustParseName("/").Parent()
	forms := []struct {
		label string
		name  Name
	}{
		{"Name{}", Name{}},
		{`MustParseName("/")`, MustParseName("/")},
		{"NewName()", NewName()},
		{"Prefix(0)", MustParseName("/a/b").Prefix(0)},
		{"Parent() of /a", parent},
		{"Parent() of /", rootParent},
		{"Name{}.Clone()", Name{}.Clone()},
	}
	for _, a := range forms {
		if a.name.String() != "/" || a.name.HasPrivateMarker() {
			t.Errorf("%s: String %q, private %t, want / and not private", a.label, a.name.String(), a.name.HasPrivateMarker())
		}
		if !a.name.IsEmpty() || a.name.Len() != 0 {
			t.Errorf("%s: %d components, want 0", a.label, a.name.Len())
		}
		if !a.name.IsPrefixOf(one) {
			t.Errorf("%s is not a prefix of /a", a.label)
		}
		for _, b := range forms {
			if !a.name.Equal(b.name) || a.name.Compare(b.name) != 0 || a.name.Hash() != b.name.Hash() {
				t.Errorf("%s and %s: Equal %t, Compare %d, Hash %#x / %#x", a.label, b.label,
					a.name.Equal(b.name), a.name.Compare(b.name), a.name.Hash(), b.name.Hash())
			}
		}
	}
}

// A name has one wire encoding. The codec reads VAR-NUMBERs of any
// width, so a component length could be spelled 0xFD 0x00 0x01 as well
// as 0x01 — and a flat name compared byte for byte would be two names.
// Every decoder of a name (borrowed parse, owned decode, the forwarder's
// wire probe through InterestNameView) rejects the long spelling; one
// outside the name's value — the Name or Interest TLV's own length —
// changes nothing and decodes to the canonical name.
func TestNameHasOneEncoding(t *testing.T) {
	canonical := MustParseName("/a/bc")
	for _, tc := range []struct {
		label string
		value []byte
	}{
		{"three-byte component length", []byte{0x08, 0x01, 'a', 0x08, 0xFD, 0x00, 0x02, 'b', 'c'}},
		{"five-byte component length", []byte{0x08, 0xFE, 0x00, 0x00, 0x00, 0x01, 'a', 0x08, 0x02, 'b', 'c'}},
		{"three-byte component type", []byte{0x08, 0x01, 'a', 0xFD, 0x00, 0x08, 0x02, 'b', 'c'}},
	} {
		nameWire := appendTLV(nil, tlvName, tc.value)
		interest := appendTLV(nil, tlvInterest, appendUintTLV(nameWire, tlvNonce, 1))
		if n, err := InterestNameView(interest); err == nil {
			t.Errorf("%s: InterestNameView accepted %q", tc.label, n)
		}
		if i, err := DecodeInterest(interest); err == nil {
			t.Errorf("%s: DecodeInterest accepted %q", tc.label, i.Name)
		}
		data := appendTLV(nil, tlvData, appendTLV(nameWire, tlvPayload, []byte("x")))
		if d, err := DecodeData(data); err == nil {
			t.Errorf("%s: DecodeData accepted %q", tc.label, d.Name)
		}
	}

	// A long Name length and a long Interest length wrap the same value.
	value := EncodeName(nil, canonical)[2:]
	long := append([]byte{0x07, 0xFD, 0x00, byte(len(value))}, value...)
	long = appendUintTLV(long, tlvNonce, 1)
	long = append([]byte{0x05, 0xFD, 0x00, byte(len(long))}, long...)
	borrowed, err := InterestNameView(long)
	if err != nil {
		t.Fatalf("InterestNameView: %v", err)
	}
	decoded, err := DecodeInterest(long)
	if err != nil {
		t.Fatalf("DecodeInterest: %v", err)
	}
	for _, n := range []Name{borrowed, decoded.Name} {
		if !n.Equal(canonical) || n.Hash() != canonical.Hash() || n.String() != canonical.String() {
			t.Errorf("%q under a long outer length: Equal %t, Hash %#x, want %#x", n, n.Equal(canonical), n.Hash(), canonical.Hash())
		}
	}
}

// A borrowed name is the same type as an owned one and aliases the
// buffer it was parsed from; Clone is the one copy that outlives it.
func TestBorrowedNameClone(t *testing.T) {
	wire := EncodeInterest(NewInterest(MustParseName("/p/doc/1"), 0))
	v, err := InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	owned := v.Clone()
	for i := range wire {
		wire[i] = 0xA5
	}
	if owned.String() != "/p/doc/1" || owned.Len() != 3 || owned.Hash() != MustParseName("/p/doc/1").Hash() {
		t.Errorf("Clone changed with the buffer: %q", owned)
	}
	if again := owned.Clone(); !again.Equal(owned) || again.Hash() != owned.Hash() {
		t.Errorf("Clone of an owned name = %q, want %q", again, owned)
	}
}

func TestComponentIter(t *testing.T) {
	n := NewName([]byte("a"), []byte{}, make([]byte, 300), []byte("%/"))
	var got [][]byte
	for it := n.Components(); it.Next(); {
		got = append(got, it.Component())
	}
	if len(got) != n.Len() {
		t.Fatalf("iterated %d components of %d", len(got), n.Len())
	}
	for i, c := range got {
		if !bytes.Equal(c, n.ComponentRef(i)) {
			t.Errorf("component %d: iterator %x, ComponentRef %x", i, c, n.ComponentRef(i))
		}
	}
	if it := (Name{}).Components(); it.Next() {
		t.Error("the root has a component")
	}
}
