package pcct

import (
	"fmt"
	"testing"

	"ndnprivacy/internal/ndn"
)

// These tests pin the composite table's zero-allocation contract: its
// probe paths and its steady-state churn must not allocate.

func TestLookupPathsZeroAlloc(t *testing.T) {
	tb := New(PolicyLRU)
	names := make([]ndn.Name, 64)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/alloc/%d", i))
		tb.Put(names[i])
	}
	hot := names[7]
	wire := ndn.EncodeInterest(ndn.NewInterest(hot, 1))
	v, err := ndn.InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	tok := tb.TokenOf(tb.Get(hot))
	if n := testing.AllocsPerRun(200, func() {
		if tb.Get(hot) == nil {
			t.Fatal("Get missed")
		}
		if tb.Get(v) == nil {
			t.Fatal("Get of the borrowed name missed")
		}
		if tb.ByToken(tok) == nil {
			t.Fatal("ByToken missed")
		}
		p := tb.Probe(hot)
		if p.Entry == nil {
			t.Fatal("Probe missed")
		}
		if tb.LenPIT() != 0 {
			t.Fatal("LenPIT counts a facet-less table")
		}
	}); n != 0 {
		t.Errorf("lookup paths: %.0f allocs/run, want 0", n)
	}
}

// TestChurnZeroAllocSteadyState churns one-depth names through the CS
// facet under every eviction policy, in both index states: never ordered
// (exact-only traffic, where the churn must also leave the index
// unbuilt) and ordered up front (every attach and detach maintains the
// sorted slice). LFU's frequency buckets come from a pool, so a hit that
// opens a new frequency allocates nothing either.
func TestChurnZeroAllocSteadyState(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyLRU, PolicyFIFO, PolicyLFU} {
		for _, ordered := range []bool{false, true} {
			tb := New(policy)
			names := make([]ndn.Name, 32)
			for i := range names {
				names[i] = ndn.MustParseName(fmt.Sprintf("/churn/%d", i))
			}
			if ordered {
				tb.CSLowerBound(names[0])
			}
			// Warm the arena, the bucket array and the prefix index.
			for i := range names {
				e := tb.Put(names[i])
				tb.AttachCS(e, i)
			}
			for i := range names {
				e := tb.Get(names[i])
				tb.DetachCS(e)
				tb.ReleaseIfEmpty(e)
			}
			i := 0
			if n := testing.AllocsPerRun(200, func() {
				nm := names[i%len(names)]
				i++
				e := tb.Put(nm)
				tb.AttachCS(e, i)
				tb.CSAccess(e)
				if tb.CSLongerThan(nm.Len()) {
					t.Fatal("one-depth table reports a longer name")
				}
				v := tb.CSVictim()
				tb.DetachCS(v)
				tb.ReleaseIfEmpty(v)
			}); n != 0 {
				t.Errorf("%s, ordered=%t: steady-state CS churn: %.0f allocs/run, want 0", policy, ordered, n)
			}
			if tb.csOrdered != ordered || (!ordered && tb.csOrder != nil) {
				t.Errorf("%s, ordered=%t: after exact-only churn csOrdered=%t, index cap %d", policy, ordered, tb.csOrdered, cap(tb.csOrder))
			}
		}
	}
}

func TestPITFacetZeroAllocSteadyState(t *testing.T) {
	tb := New(PolicyLRU)
	nm := ndn.MustParseName("/pit/alloc")
	// First cycle allocates the facet slices and the length counters.
	e := tb.Put(nm)
	pf := tb.AttachPIT(e)
	pf.Faces = append(pf.Faces, FaceRec{Face: 1})
	pf.Nonces = append(pf.Nonces, 1)
	tb.DetachPIT(e)
	tb.ReleaseIfEmpty(e)
	if n := testing.AllocsPerRun(200, func() {
		e := tb.Put(nm)
		pf := tb.AttachPIT(e)
		pf.Faces = append(pf.Faces, FaceRec{Face: 1, Token: 2})
		pf.Nonces = append(pf.Nonces, 42)
		tb.DetachPIT(e)
		tb.ReleaseIfEmpty(e)
	}); n != 0 {
		t.Errorf("steady-state PIT facet cycle: %.0f allocs/run, want 0", n)
	}
}
