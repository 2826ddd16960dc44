package tiered

import (
	"fmt"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

// The tiered-CS benchmark suite measures the three lookup classes the
// timing adversary distinguishes — RAM hit, disk hit, miss — plus the
// movement machinery (promotion churn) that keeps the channel alive.

func benchStore(b *testing.B, ramCap int) *cache.Store {
	b.Helper()
	return tieredStore(b, ramCap, NewDiskModel(DiskModelConfig{}))
}

func BenchmarkTieredExactRAMHit(b *testing.B) {
	s := benchStore(b, 16)
	d := mustData("/bench/ram")
	s.Insert(d, 0, 0)
	name := d.Name
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := s.Exact(name, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTieredProbeViewRAMHit(b *testing.B) {
	s := benchStore(b, 16)
	d := mustData("/bench/ram")
	s.Insert(d, 0, 0)
	wire := ndn.EncodeName(nil, d.Name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ndn.ParseNameView(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, found, _ := s.ProbeView(v, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTieredProbeViewDiskHit(b *testing.B) {
	// ProbeView is a pure probe (no promotion), so a disk-resident
	// entry stays disk-resident across iterations.
	s := benchStore(b, 1)
	d := mustData("/bench/disk")
	s.Insert(d, 0, 0)
	s.Insert(mustData("/bench/pin"), 0, 0) // demotes /bench/disk
	wire := ndn.EncodeName(nil, d.Name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ndn.ParseNameView(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, found, _ := s.ProbeView(v, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTieredExactMiss(b *testing.B) {
	s := benchStore(b, 16)
	s.Insert(mustData("/bench/present"), 0, 0)
	absent := ndn.MustParseName("/bench/absent")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := s.Exact(absent, 0); found {
			b.Fatal("hit")
		}
	}
}

func BenchmarkTieredPromotionChurn(b *testing.B) {
	// Alternating exact lookups over two objects with a one-slot RAM
	// front: every lookup promotes one and demotes the other.
	s := benchStore(b, 1)
	x, y := mustData("/bench/x"), mustData("/bench/y")
	s.Insert(x, 0, 0)
	s.Insert(y, 0, 0)
	names := [2]ndn.Name{x.Name, y.Name}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := s.Exact(names[i&1], 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTieredInsertDemote(b *testing.B) {
	// Sustained insertion through a small RAM front: every insert past
	// capacity demotes a victim to the (unbounded) disk model.
	s := benchStore(b, 16)
	data := make([]*ndn.Data, 1024)
	for i := range data {
		data[i] = mustData(fmt.Sprintf("/bench/obj/%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(data[i%len(data)], time.Duration(i), 0)
	}
}
