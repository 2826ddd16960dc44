package ndn

import (
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

func TestHasPrivateMarker(t *testing.T) {
	if !MustParseName("/bob/docs/private/tax").HasPrivateMarker() {
		t.Error("name with /private/ component not detected")
	}
	if MustParseName("/bob/docs/privateer").HasPrivateMarker() {
		t.Error("false positive: component merely containing 'private'")
	}
	if MustParseName("/").HasPrivateMarker() {
		t.Error("root name reported private")
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

// Prefix slices the parent's URI instead of rendering; every k must
// agree with a name built from the same components the slow way, for
// names whose URI bytes and wire bytes differ (percent-escapes).
func TestNamePrefixMatchesRendered(t *testing.T) {
	names := []Name{
		{},
		MustParseName("/"),
		MustParseName("/a/b/c"),
		MustParseName("/%00/a%2Fb/%25/%FF%FE/plain"),
		NewName([]byte("%"), []byte{0, 1, 2}, []byte("~-._"), []byte("a b/c"), []byte{0xC3, 0xA9}),
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
			if got.String() != want.String() || got.Key() != want.Key() {
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
