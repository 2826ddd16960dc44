package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

func benchData(i int) *ndn.Data {
	d, err := ndn.NewData(ndn.MustParseName(fmt.Sprintf("/bench/site%d/obj%d", i%31, i)), []byte("p"))
	if err != nil {
		panic(err)
	}
	return d
}

func benchmarkStoreChurn(b *testing.B, policyName string) {
	b.Helper()
	policy, ok := NewPolicy(policyName)
	if !ok {
		b.Fatalf("unknown policy %s", policyName)
	}
	s := MustNewStore(1024, policy)
	// Pre-populate a working set.
	objects := make([]*ndn.Data, 4096)
	for i := range objects {
		objects[i] = benchData(i)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d := objects[rng.Intn(len(objects))]
		if entry, found := s.Exact(d.Name, 0); found {
			s.Touch(entry.Data.Name)
		} else {
			s.Insert(d, time.Duration(n), time.Millisecond)
		}
	}
}

func BenchmarkStoreChurnLRU(b *testing.B)  { benchmarkStoreChurn(b, "lru") }
func BenchmarkStoreChurnFIFO(b *testing.B) { benchmarkStoreChurn(b, "fifo") }
func BenchmarkStoreChurnLFU(b *testing.B)  { benchmarkStoreChurn(b, "lfu") }

func BenchmarkStoreExactHit(b *testing.B) {
	s := MustNewStore(0, nil)
	for i := 0; i < 10000; i++ {
		s.Insert(benchData(i), 0, 0)
	}
	name := ndn.MustParseName(fmt.Sprintf("/bench/site%d/obj%d", 5000%31, 5000))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, found := s.Exact(name, 0); !found {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreProbeViewHit is BenchmarkStoreExactHit taken directly
// over the wire buffer: borrow the name, probe the hash-indexed table.
// This is the full per-interest hit/miss decision the paper's timing
// adversary measures, with no owned name materialized.
func BenchmarkStoreProbeViewHit(b *testing.B) {
	s := MustNewStore(0, nil)
	for i := 0; i < 10000; i++ {
		s.Insert(benchData(i), 0, 0)
	}
	name := ndn.MustParseName(fmt.Sprintf("/bench/site%d/obj%d", 5000%31, 5000))
	wire := ndn.EncodeName(nil, name)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v, err := ndn.ParseNameView(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, found, _ := s.ProbeView(v, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStorePrefixMatch(b *testing.B) {
	s := MustNewStore(0, nil)
	for i := 0; i < 10000; i++ {
		s.Insert(benchData(i), 0, 0)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/bench/site7"), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, found := s.Match(interest, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStoreInsertEvict(b *testing.B) {
	s := MustNewStore(256, NewLRU())
	// Pre-generate the object pool so the loop measures the store's
	// insert+evict cost, not Data construction.
	objects := make([]*ndn.Data, 8192)
	for i := range objects {
		objects[i] = benchData(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Insert(objects[n%len(objects)], time.Duration(n), 0)
	}
}
