package table

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ndnprivacy/internal/ndn"
)

func TestFIBLongestPrefixMatch(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/", 1)
	mustInsert(t, f, "/cnn", 2)
	mustInsert(t, f, "/cnn/news", 3)

	cases := []struct {
		name string
		want FaceID
	}{
		{"/cnn/news/2013may20", 3},
		{"/cnn/news", 3},
		{"/cnn/sports", 2},
		{"/bbc", 1},
		{"/", 1},
	}
	for _, tc := range cases {
		faces, err := f.Lookup(ndn.MustParseName(tc.name))
		if err != nil {
			t.Fatalf("Lookup(%s): %v", tc.name, err)
		}
		if len(faces) != 1 || faces[0] != tc.want {
			t.Errorf("Lookup(%s) = %v, want [%d]", tc.name, faces, tc.want)
		}
	}
}

func TestFIBNoRoute(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/cnn", 1)
	if _, err := f.Lookup(ndn.MustParseName("/bbc/news")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestFIBRequiresFaces(t *testing.T) {
	f := NewFIB()
	if err := f.Insert(ndn.MustParseName("/x")); err == nil {
		t.Error("Insert with no faces accepted")
	}
}

func TestFIBMultipleNextHops(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/multi", 4, 5, 6)
	faces, err := f.Lookup(ndn.MustParseName("/multi/path"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
	if !reflect.DeepEqual(faces, []FaceID{4, 5, 6}) {
		t.Errorf("faces = %v, want [4 5 6]", faces)
	}
}

func TestFIBReplaceEntry(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/x", 1)
	mustInsert(t, f, "/x", 2)
	if f.Len() != 1 {
		t.Errorf("Len = %d after replacement, want 1", f.Len())
	}
	faces, err := f.Lookup(ndn.MustParseName("/x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(faces) != 1 || faces[0] != 2 {
		t.Errorf("faces = %v, want [2]", faces)
	}
}

func TestFIBLookupCopiesResult(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/x", 7)
	faces, _ := f.Lookup(ndn.MustParseName("/x"))
	faces[0] = 99
	again, _ := f.Lookup(ndn.MustParseName("/x"))
	if again[0] != 7 {
		t.Error("Lookup result aliases internal state")
	}
}

func TestFIBRemove(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/a/b/c", 1)
	mustInsert(t, f, "/a", 2)
	if !f.Remove(ndn.MustParseName("/a/b/c")) {
		t.Fatal("Remove of existing prefix returned false")
	}
	if f.Remove(ndn.MustParseName("/a/b/c")) {
		t.Error("second Remove returned true")
	}
	if f.Remove(ndn.MustParseName("/a/b")) {
		t.Error("Remove of interior node returned true")
	}
	faces, err := f.Lookup(ndn.MustParseName("/a/b/c"))
	if err != nil || faces[0] != 2 {
		t.Errorf("after removal, Lookup falls back: got %v, %v; want [2]", faces, err)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
}

func TestFIBRemovePrunes(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/deep/long/chain", 1)
	f.Remove(ndn.MustParseName("/deep/long/chain"))
	if got := f.Prefixes(); len(got) != 0 {
		t.Errorf("Prefixes after full removal = %v, want empty", got)
	}
	if f.Len() != 0 || len(f.lens) != 0 {
		t.Errorf("after removal: %d routes, per-length counts %v; want none", f.Len(), f.lens)
	}
}

func TestFIBRootEntry(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/", 9)
	faces, err := f.Lookup(ndn.MustParseName("/anything/at/all"))
	if err != nil || faces[0] != 9 {
		t.Errorf("default route: got %v, %v", faces, err)
	}
	if got := f.Prefixes(); !reflect.DeepEqual(got, []string{"/"}) {
		t.Errorf("Prefixes = %v, want [/]", got)
	}
}

func TestFIBLookupPrefixLen(t *testing.T) {
	f := NewFIB()
	mustInsert(t, f, "/a/b", 1)
	_, n, err := f.LookupPrefixLen(ndn.MustParseName("/a/b/c/d"))
	if err != nil || n != 2 {
		t.Errorf("LookupPrefixLen = %d, %v; want 2", n, err)
	}
	if _, _, err := f.LookupPrefixLen(ndn.MustParseName("/zzz")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("miss: err = %v, want ErrNoRoute", err)
	}
}

func TestFIBPrefixesSorted(t *testing.T) {
	f := NewFIB()
	for _, p := range []string{"/zebra", "/alpha", "/alpha/beta", "/mid"} {
		mustInsert(t, f, p, 1)
	}
	got := f.Prefixes()
	if !sort.StringsAreSorted(got) {
		t.Errorf("Prefixes not sorted: %v", got)
	}
	if len(got) != 4 {
		t.Errorf("Prefixes = %v, want 4 entries", got)
	}
}

// Prefixes renders each prefix from its name: a component holding a
// slash or a space is escaped, so the one-component prefix "a/b" and the
// two-component /a/b stay two lines.
func TestFIBPrefixesRenderNames(t *testing.T) {
	f := NewFIB()
	for _, p := range []ndn.Name{
		ndn.Name{}.Append([]byte("a/b")),
		ndn.MustParseName("/a/b"),
		ndn.Name{}.Append([]byte("x y")),
	} {
		if err := f.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"/a%2Fb", "/a/b", "/x%20y"}
	if got := f.Prefixes(); !reflect.DeepEqual(got, want) {
		t.Errorf("Prefixes = %q, want %q", got, want)
	}
}

// Property: after inserting a set of prefixes, looking up any inserted
// prefix returns its own faces (exact match wins over shorter ones).
func TestFIBExactMatchProperty(t *testing.T) {
	f := func(rawComps [][]byte) bool {
		comps := make([][]byte, 0, len(rawComps))
		for _, c := range rawComps {
			if len(c) > 0 {
				comps = append(comps, c)
			}
		}
		fib := NewFIB()
		// Insert every prefix of the name with face = prefix length.
		name := ndn.Name{}.Append(comps...)
		for k := 0; k <= name.Len(); k++ {
			if err := fib.Insert(name.Prefix(k), FaceID(k)); err != nil {
				return false
			}
		}
		for k := 0; k <= name.Len(); k++ {
			faces, err := fib.Lookup(name.Prefix(k))
			if err != nil || len(faces) != 1 || faces[0] != FaceID(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustInsert(t *testing.T, f *FIB, prefix string, faces ...FaceID) {
	t.Helper()
	if err := f.Insert(ndn.MustParseName(prefix), faces...); err != nil {
		t.Fatalf("Insert(%s): %v", prefix, err)
	}
}
