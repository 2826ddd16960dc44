package cache

import (
	"testing"

	"ndnprivacy/internal/ndn"
)

// These tests pin the zero-allocation contract of Store.Exact and
// Store.Touch: the exact-match lookup is the operation whose latency
// distribution the paper's cache-timing adversary measures
// (BenchmarkStoreExactHit reports 0 allocs/op; this makes the
// regression fail `go test`, not just the bench eyeball).

func TestStoreExactHitZeroAlloc(t *testing.T) {
	s := MustNewStore(0, nil)
	d := benchData(1)
	s.Insert(d, 0, 0)
	name := d.Name
	hits := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, found := s.Exact(name, 0); found {
			hits++
		}
	}); n != 0 {
		t.Errorf("Store.Exact hit: %.0f allocs/run, want 0", n)
	}
	if hits == 0 {
		t.Fatal("lookups unexpectedly missed")
	}
}

func TestStoreExactMissZeroAlloc(t *testing.T) {
	s := MustNewStore(0, nil)
	s.Insert(benchData(1), 0, 0)
	absent := ndn.MustParseName("/bench/absent")
	if n := testing.AllocsPerRun(200, func() {
		s.Exact(absent, 0)
	}); n != 0 {
		t.Errorf("Store.Exact miss: %.0f allocs/run, want 0", n)
	}
}

func TestStoreProbeViewZeroAlloc(t *testing.T) {
	s := MustNewStore(0, nil)
	d := benchData(1)
	s.Insert(d, 0, 0)
	wire := ndn.EncodeInterest(ndn.NewInterest(d.Name, 0))
	missWire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/bench/absent"), 0))
	hits := 0
	if n := testing.AllocsPerRun(200, func() {
		v, err := ndn.InterestNameView(wire)
		if err != nil {
			t.Fatal(err)
		}
		if _, found, _ := s.ProbeView(v, 0); found {
			hits++
		}
		m, err := ndn.InterestNameView(missWire)
		if err != nil {
			t.Fatal(err)
		}
		s.ProbeView(m, 0)
	}); n != 0 {
		t.Errorf("Store.ProbeView (wire parse + hit + miss): %.0f allocs/run, want 0", n)
	}
	if hits == 0 {
		t.Fatal("lookups unexpectedly missed")
	}
}

func TestStoreTouchZeroAlloc(t *testing.T) {
	s := MustNewStore(16, NewLRU())
	d := benchData(1)
	s.Insert(d, 0, 0)
	name := d.Name
	if n := testing.AllocsPerRun(200, func() {
		s.Touch(name)
	}); n != 0 {
		t.Errorf("Store.Touch (LRU): %.0f allocs/run, want 0", n)
	}
}
