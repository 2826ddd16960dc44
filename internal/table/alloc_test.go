package table

import (
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

// These tests pin the allocation-free FIB lookup and PIT operations: the
// steady-state probe (HasPending) and the duplicate-nonce drop path run
// on every looped or retransmitted Interest and must not allocate, and a
// steady admit-then-satisfy or admit-then-lapse cycle reuses what the
// first admission allocated.

func TestPITHasPendingZeroAlloc(t *testing.T) {
	p := NewPIT()
	name := ndn.MustParseName("/alloc/pending/view")
	insert(p, ndn.NewInterest(name, 1), 1, 0)
	wire := ndn.EncodeInterest(ndn.NewInterest(name, 0))
	found := 0
	if n := testing.AllocsPerRun(200, func() {
		v, err := ndn.InterestNameView(wire)
		if err != nil {
			t.Fatal(err)
		}
		if p.HasPending(v, time.Millisecond) {
			found++
		}
	}); n != 0 {
		t.Errorf("PIT.HasPending (wire parse + probe): %.0f allocs/run, want 0", n)
	}
	if found == 0 {
		t.Fatal("entry unexpectedly absent")
	}
}

// A FIB lookup, hit or miss, is one rolling pass over the name and one
// hash probe per registered prefix length, on the stack: NextHops runs
// once per forwarded interest.
func TestFIBNextHopsZeroAlloc(t *testing.T) {
	f := NewFIB()
	for i, prefix := range []string{"/", "/p", "/p/o", "/q/r/s"} {
		if err := f.Insert(ndn.MustParseName(prefix), FaceID(i)); err != nil {
			t.Fatal(err)
		}
	}
	deep := ndn.MustParseName("/p/o/%00escaped%2F/1/2/3/4/5/6/7/8/9")
	other := ndn.MustParseName("/q/r/t")
	hops := 0
	if n := testing.AllocsPerRun(200, func() {
		hops += len(f.NextHops(deep)) + len(f.NextHops(other))
	}); n != 0 {
		t.Errorf("FIB.NextHops: %.0f allocs/run, want 0", n)
	}
	if got := f.NextHops(deep); len(got) != 1 || got[0] != 2 || hops == 0 {
		t.Fatalf("NextHops(%s) = %v, want [2]", deep, got)
	}
}

func TestPITDuplicateNonceZeroAlloc(t *testing.T) {
	p := NewPIT()
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/dup"), 7)
	if got := insert(p, interest, 1, 0); got != InsertedNew {
		t.Fatalf("first insert: %v", got)
	}
	outcomes := 0
	if n := testing.AllocsPerRun(200, func() {
		if insert(p, interest, 1, time.Millisecond) == DuplicateNonce {
			outcomes++
		}
	}); n != 0 {
		t.Errorf("PIT.InsertProbed duplicate-nonce: %.0f allocs/run, want 0", n)
	}
	if outcomes == 0 {
		t.Fatal("expected duplicate-nonce outcomes")
	}
}

func TestPITInsertSatisfyChurnZeroAlloc(t *testing.T) {
	// The full steady-state PIT lifecycle — probe, admit, then satisfy or
	// lapse — must not allocate: entries come from the table arena's
	// free list, facets from the facet pool, and the face/nonce/result
	// slices retain their backing across lifecycles. A Data read from a
	// socket carries no token (tokens are never wire-encoded), so the
	// daemon's Data path is the by-name prefix sweep, not the token.
	name := ndn.MustParseName("/alloc/churn")
	interest := ndn.NewInterest(name, 1)
	d, err := ndn.NewData(name, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		byToken   bool
		arrival   time.Duration // when the Data arrives
		satisfied bool
	}{
		{"token", true, 0, true},
		{"name", false, 0, true},
		{"expired", false, ndn.DefaultInterestLifetime, false},
	} {
		p := NewPIT()
		// Prime one lifecycle so arena, pool and buffers reach capacity.
		insert(p, interest, 1, 0)
		if _, ok := p.SatisfyByToken(d, 0, 0); !ok {
			t.Fatal("prime satisfaction failed")
		}
		if n := testing.AllocsPerRun(200, func() {
			pr := p.Probe(interest.Name)
			_, tok := p.InsertProbed(interest, 1, 0, &pr)
			if tok == 0 {
				t.Fatal("no token returned")
			}
			if !tc.byToken {
				tok = 0
			}
			if _, ok := p.SatisfyByToken(d, tok, tc.arrival); ok != tc.satisfied {
				t.Fatalf("%s: satisfied = %t, want %t", tc.name, ok, tc.satisfied)
			}
		}); n != 0 {
			t.Errorf("%s: PIT insert+satisfy churn: %.2f allocs/run, want 0", tc.name, n)
		}
		if lapsed := p.Expired() != 0; lapsed != !tc.satisfied {
			t.Errorf("%s: %d entries expired", tc.name, p.Expired())
		}
	}
}
