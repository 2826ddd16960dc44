package tiered

import (
	"testing"

	"ndnprivacy/internal/ndn"
)

// These tests pin the zero-allocation contract on the tiered store's
// RAM-front exact lookup — the latency floor of the three-way timing
// channel. The second-tier fallback allocates in its backends, so the
// pins cover RAM hits and clean misses, the two cases that stay on the
// allocation-free path.

func TestTieredExactRAMHitZeroAlloc(t *testing.T) {
	s := tieredStore(t, 8, NewDiskModel(DiskModelConfig{}))
	d := mustData("/bench/a")
	s.Insert(d, 0, 0)
	name := d.Name
	hits := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, found := s.Exact(name, 0); found {
			hits++
		}
	}); n != 0 {
		t.Errorf("tiered Exact RAM hit: %.0f allocs/run, want 0", n)
	}
	if hits == 0 {
		t.Fatal("lookups unexpectedly missed")
	}
}

func TestTieredProbeViewZeroAlloc(t *testing.T) {
	s := tieredStore(t, 8, NewDiskModel(DiskModelConfig{}))
	d := mustData("/bench/a")
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
		t.Errorf("tiered ProbeView (wire parse + RAM hit + miss): %.0f allocs/run, want 0", n)
	}
	if hits == 0 {
		t.Fatal("lookups unexpectedly missed")
	}
}

func TestTieredTouchZeroAlloc(t *testing.T) {
	s := tieredStore(t, 8, NewDiskModel(DiskModelConfig{}))
	d := mustData("/bench/a")
	s.Insert(d, 0, 0)
	name := d.Name
	if n := testing.AllocsPerRun(200, func() {
		s.Touch(name)
	}); n != 0 {
		t.Errorf("tiered Touch: %.0f allocs/run, want 0", n)
	}
}
