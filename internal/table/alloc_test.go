package table

import (
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

// These tests pin the allocation-free PIT operations declared by the
// //ndnlint:hotpath annotations: the steady-state probe (HasPendingView)
// and the duplicate-nonce drop path run on every looped or
// retransmitted Interest and must not allocate. (New-entry admission
// allocates by design and carries explicit waivers.)

func TestPITHasPendingViewZeroAlloc(t *testing.T) {
	p := NewPIT()
	name := ndn.MustParseName("/alloc/pending/view")
	insert(p, ndn.NewInterest(name, 1), 1, 0)
	wire := ndn.EncodeName(nil, name)
	found := 0
	if n := testing.AllocsPerRun(200, func() {
		v, err := ndn.ParseNameView(wire)
		if err != nil {
			t.Fatal(err)
		}
		if p.HasPendingView(&v, time.Millisecond) {
			found++
		}
	}); n != 0 {
		t.Errorf("PIT.HasPendingView: %.0f allocs/run, want 0", n)
	}
	if found == 0 {
		t.Fatal("entry unexpectedly absent")
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
	// The full steady-state PIT lifecycle — probe, admit, satisfy by
	// token — must not allocate: entries come from the table arena's
	// free list, facets from the facet pool, and the face/nonce/result
	// slices retain their backing across lifecycles.
	p := NewPIT()
	name := ndn.MustParseName("/alloc/churn")
	interest := ndn.NewInterest(name, 1)
	d, err := ndn.NewData(name, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
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
		if _, ok := p.SatisfyByToken(d, tok, 0); !ok {
			t.Fatal("satisfaction failed")
		}
	}); n != 0 {
		t.Errorf("PIT insert+satisfy churn: %.2f allocs/run, want 0", n)
	}
}
