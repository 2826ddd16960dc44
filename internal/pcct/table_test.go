package pcct

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ndnprivacy/internal/ndn"
)

func name(s string) ndn.Name { return ndn.MustParseName(s) }

func TestPutGetRelease(t *testing.T) {
	tb := New(PolicyLRU)
	a := tb.Put(name("/a/b"))
	if a == nil || tb.Len() != 1 {
		t.Fatalf("Put: entry=%v len=%d", a, tb.Len())
	}
	if tb.Put(name("/a/b")) != a {
		t.Fatal("second Put returned a different entry")
	}
	if got := tb.Get(name("/a/b")); got != a {
		t.Fatalf("Get = %v, want %v", got, a)
	}
	if tb.Get(name("/a/c")) != nil {
		t.Fatal("Get of absent name returned an entry")
	}
	tb.ReleaseIfEmpty(a)
	if tb.Len() != 0 || tb.Get(name("/a/b")) != nil {
		t.Fatal("released entry still visible")
	}
}

func TestReleaseKeepsFacetedEntries(t *testing.T) {
	tb := New(PolicyLRU)
	e := tb.Put(name("/x"))
	tb.AttachCS(e, "payload")
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/x")) != e {
		t.Fatal("entry with CS facet was released")
	}
	tb.DetachCS(e)
	tb.AttachPIT(e)
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/x")) != e {
		t.Fatal("entry with PIT facet was released")
	}
	tb.DetachPIT(e)
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/x")) != nil {
		t.Fatal("empty entry survived release")
	}
}

// Get serves a borrowed name — the wire probe's, aliasing the packet —
// exactly as it serves the owned name the entry was made with.
func TestGetBorrowedName(t *testing.T) {
	tb := New(PolicyLRU)
	n := name("/view/probe/x")
	e := tb.Put(n)
	wire := ndn.EncodeInterest(ndn.NewInterest(n, 1))
	v, err := ndn.InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Get(v); got != e {
		t.Fatalf("Get(borrowed) = %v, want %v", got, e)
	}
	missWire := ndn.EncodeInterest(ndn.NewInterest(name("/view/probe/y"), 2))
	mv, err := ndn.InterestNameView(missWire)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Get(mv) != nil {
		t.Fatal("Get of an absent borrowed name returned an entry")
	}
}

func TestGetPrefixRollingHash(t *testing.T) {
	tb := New(PolicyLRU)
	full := name("/a/b/c/d")
	short := tb.Put(name("/a/b"))
	exact := tb.Put(full)
	h := ndn.NameHashSeed()
	var hits []*Entry
	for k := 0; ; k++ {
		if e := tb.GetPrefix(h, k, full); e != nil {
			hits = append(hits, e)
		}
		if k == full.Len() {
			break
		}
		h = ndn.MixComponentHash(h, full.ComponentRef(k))
	}
	if len(hits) != 2 || hits[0] != short || hits[1] != exact {
		t.Fatalf("prefix sweep found %d entries, want [/a/b, /a/b/c/d]", len(hits))
	}
}

func TestTokenLifecycle(t *testing.T) {
	tb := New(PolicyLRU)
	e := tb.Put(name("/tok"))
	tok := tb.TokenOf(e)
	if tok == 0 {
		t.Fatal("token must be nonzero")
	}
	if tb.ByToken(tok) != e {
		t.Fatal("token did not resolve to its entry")
	}
	if tb.ByToken(0) != nil || tb.ByToken(tok+1<<32) != nil {
		t.Fatal("invalid token resolved")
	}
	tb.ReleaseIfEmpty(e)
	if tb.ByToken(tok) != nil {
		t.Fatal("stale token resolved after release")
	}
	// Recycle the slot under a different name: the old token must stay
	// dead and the new token must resolve.
	e2 := tb.Put(name("/tok2"))
	if tb.ByToken(tok) != nil {
		t.Fatal("stale token resolved against recycled slot")
	}
	if tb.ByToken(tb.TokenOf(e2)) != e2 {
		t.Fatal("fresh token did not resolve")
	}
}

func TestProbeInsertReuse(t *testing.T) {
	tb := New(PolicyLRU)
	n := name("/probe/x")
	p := tb.Probe(n)
	if p.Entry != nil {
		t.Fatal("probe of empty table found an entry")
	}
	e := tb.PutProbed(&p, n)
	if e == nil || tb.Get(n) != e {
		t.Fatal("PutProbed did not insert")
	}
	if !p.Valid(tb) || p.Entry != e {
		t.Fatal("probe not updated after insert")
	}
	// A mutated table invalidates the probe; PutProbed must re-probe
	// rather than clobber a bucket.
	p2 := tb.Probe(name("/probe/y"))
	tb.Put(name("/probe/z"))
	if p2.Valid(tb) {
		t.Fatal("probe still valid after mutation")
	}
	e2 := tb.PutProbed(&p2, name("/probe/y"))
	if tb.Get(name("/probe/y")) != e2 || tb.Get(name("/probe/z")) == nil || tb.Get(n) != e {
		t.Fatal("stale-probe insert corrupted the table")
	}
}

// TestChurnAgainstMap drives random insert/lookup/delete against a map
// reference, crossing several growth and backward-shift boundaries.
func TestChurnAgainstMap(t *testing.T) {
	tb := New(PolicyLRU)
	ref := make(map[string]*Entry)
	rng := rand.New(rand.NewSource(7))
	names := make([]ndn.Name, 300)
	for i := range names {
		names[i] = name(fmt.Sprintf("/churn/%d/%d", i%17, i))
	}
	for op := 0; op < 20000; op++ {
		n := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0:
			e := tb.Put(n)
			if prev, ok := ref[n.String()]; ok && prev != e {
				t.Fatalf("op %d: Put(%s) returned a different entry", op, n)
			}
			ref[n.String()] = e
		case 1:
			e := tb.Get(n)
			want := ref[n.String()]
			if e != want {
				t.Fatalf("op %d: Get(%s) = %v, want %v", op, n, e, want)
			}
		case 2:
			if e, ok := ref[n.String()]; ok {
				tb.ReleaseIfEmpty(e)
				delete(ref, n.String())
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tb.Len(), len(ref))
		}
	}
	for k, e := range ref {
		if got := tb.Get(e.Name()); got != e {
			t.Fatalf("final: Get(%s) = %v, want %v", k, got, e)
		}
	}
}

func csNames(tb *Table) []string {
	out := make([]string, 0, tb.CSIndexLen())
	for i := 0; i < tb.CSIndexLen(); i++ {
		out = append(out, tb.CSIndex(i).Name().String())
	}
	return out
}

func TestPrefixIndexSortedAndRanged(t *testing.T) {
	tb := New(PolicyLRU)
	uris := []string{"/b/x", "/a", "/a/c/z", "/a/b", "/c", "/a/b/d", "/a/b/c"}
	for _, u := range uris {
		e := tb.Put(name(u))
		tb.AttachCS(e, u)
	}
	got := csNames(tb)
	want := append([]string(nil), uris...)
	sort.Strings(want) // URI order == component order for these names
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index order %v, want %v", got, want)
		}
	}
	// Range scan under /a/b must yield exactly /a/b, /a/b/c, /a/b/d.
	prefix := name("/a/b")
	var under []string
	for i := tb.CSLowerBound(prefix); i < tb.CSIndexLen(); i++ {
		e := tb.CSIndex(i)
		if !prefix.IsPrefixOf(e.Name()) {
			break
		}
		under = append(under, e.Name().String())
	}
	wantUnder := []string{"/a/b", "/a/b/c", "/a/b/d"}
	if len(under) != len(wantUnder) {
		t.Fatalf("under(/a/b) = %v, want %v", under, wantUnder)
	}
	for i := range wantUnder {
		if under[i] != wantUnder[i] {
			t.Fatalf("under(/a/b) = %v, want %v", under, wantUnder)
		}
	}
	// Removal keeps the index sorted and closed.
	mid := tb.Get(name("/a/b/c"))
	tb.DetachCS(mid)
	tb.ReleaseIfEmpty(mid)
	got = csNames(tb)
	if len(got) != len(uris)-1 {
		t.Fatalf("after removal index holds %d names", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("index out of order after removal: %v", got)
		}
	}
}

// TestLateBuiltIndexMatchesEagerIndex is the on-demand index's
// property: whenever the sorted index is first asked for — before the
// first insert, or after any amount of attach/detach/release churn over
// names of mixed depth — it enumerates exactly what an index maintained
// from the start does, and stays in step from then on.
func TestLateBuiltIndexMatchesEagerIndex(t *testing.T) {
	var universe []ndn.Name
	for i := 0; i < 40; i++ {
		universe = append(universe,
			name(fmt.Sprintf("/s%d", i%7)),
			name(fmt.Sprintf("/s%d/o%d", i%7, i)),
			name(fmt.Sprintf("/s%d/o%d/seg%d", i%7, i%5, i)))
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eager, late := New(PolicyLRU), New(PolicyLRU)
		eager.CSLowerBound(universe[0]) // built while empty: maintained on every op below
		buildAt := 500 + rng.Intn(2500)
		for op := 0; op < 4000; op++ {
			n := universe[rng.Intn(len(universe))]
			attach := rng.Intn(5) < 3
			for _, tb := range []*Table{eager, late} {
				e := tb.Get(n)
				switch {
				case attach && (e == nil || e.CS() == nil):
					tb.AttachCS(tb.Put(n), op)
				case !attach && e != nil && e.CS() != nil:
					tb.DetachCS(e)
					tb.ReleaseIfEmpty(e)
				}
			}
			if op < buildAt {
				if late.csOrdered {
					t.Fatalf("seed %d op %d: attach/detach built the index", seed, op)
				}
				continue
			}
			if op == buildAt || op%97 == 0 {
				got, want := csNames(late), csNames(eager)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: late index holds %d names, eager %d", seed, op, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: index[%d] = %s, eager has %s", seed, op, i, got[i], want[i])
					}
				}
				if lo, want := late.CSLowerBound(n), eager.CSLowerBound(n); lo != want {
					t.Fatalf("seed %d op %d: CSLowerBound(%s) = %d, eager %d", seed, op, n, lo, want)
				}
			}
		}
	}
}

func TestCSLengthCounts(t *testing.T) {
	tb := New(PolicyLRU)
	if tb.CSLongerThan(0) {
		t.Fatal("empty table reports a cached name")
	}
	short, long := tb.Put(name("/p")), tb.Put(name("/p/q/r"))
	tb.AttachCS(short, 1)
	tb.AttachCS(long, 2)
	for k, want := range []bool{true, true, true, false, false} {
		if got := tb.CSLongerThan(k); got != want {
			t.Errorf("CSLongerThan(%d) = %t, want %t", k, got, want)
		}
	}
	tb.DetachCS(long)
	if tb.CSLongerThan(1) || !tb.CSLongerThan(0) {
		t.Fatal("detach did not decrement the length counts")
	}
	if tb.csOrdered {
		t.Fatal("length counts built the sorted index")
	}
}

func TestPITFacetCounts(t *testing.T) {
	tb := New(PolicyLRU)
	a := tb.Put(name("/p"))
	b := tb.Put(name("/p/q/r"))
	tb.AttachPIT(a)
	tb.AttachPIT(b)
	if tb.LenPIT() != 2 || tb.PITLenAt(1) != 1 || tb.PITLenAt(3) != 1 || tb.PITLenAt(2) != 0 {
		t.Fatalf("pit length counts wrong: len=%d at1=%d at3=%d", tb.LenPIT(), tb.PITLenAt(1), tb.PITLenAt(3))
	}
	if tb.PITLenAt(99) != 0 {
		t.Fatal("out-of-range prefix length must report zero")
	}
	tb.DetachPIT(a)
	if tb.LenPIT() != 1 || tb.PITLenAt(1) != 0 {
		t.Fatal("detach did not decrement length counts")
	}
	// Slices are retained across lifecycles.
	pf := b.PIT()
	pf.Faces = append(pf.Faces, FaceRec{Face: 3, Token: 9})
	pf.Nonces = append(pf.Nonces, 77)
	tb.DetachPIT(b)
	pf2 := tb.AttachPIT(b)
	if len(pf2.Faces) != 0 || len(pf2.Nonces) != 0 {
		t.Fatal("facet slices not length-reset on reattach")
	}
	if cap(pf2.Faces) == 0 || cap(pf2.Nonces) == 0 {
		t.Fatal("facet slices lost their backing arrays")
	}
}

func TestCompositeEntryBothFacets(t *testing.T) {
	tb := New(PolicyLRU)
	e := tb.Put(name("/both"))
	tb.AttachPIT(e)
	tb.AttachCS(e, "data")
	if tb.Len() != 1 || tb.LenCS() != 1 || tb.LenPIT() != 1 {
		t.Fatalf("composite entry miscounted: %d/%d/%d", tb.Len(), tb.LenCS(), tb.LenPIT())
	}
	tb.DetachPIT(e)
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/both")) != e || e.CS() == nil {
		t.Fatal("CS facet lost when PIT facet detached")
	}
}
