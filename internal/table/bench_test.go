package table

import (
	"fmt"
	"testing"

	"ndnprivacy/internal/ndn"
)

func BenchmarkFIBLookup(b *testing.B) {
	f := NewFIB()
	for i := 0; i < 1000; i++ {
		prefix := ndn.MustParseName(fmt.Sprintf("/as%d/net%d", i%64, i))
		if err := f.Insert(prefix, FaceID(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Insert(ndn.MustParseName("/"), 9999); err != nil {
		b.Fatal(err)
	}
	name := ndn.MustParseName("/as7/net519/host/path/object")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := f.Lookup(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFIBInsertRemove(b *testing.B) {
	f := NewFIB()
	prefixes := make([]ndn.Name, 256)
	for i := range prefixes {
		prefixes[i] = ndn.MustParseName(fmt.Sprintf("/p%d/q%d/r%d", i%8, i%32, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p := prefixes[n%len(prefixes)]
		if err := f.Insert(p, FaceID(n)); err != nil {
			b.Fatal(err)
		}
		f.Remove(p)
	}
}

func BenchmarkPITInsertSatisfy(b *testing.B) {
	p := NewPIT()
	names := make([]ndn.Name, 512)
	datas := make([]*ndn.Data, 512)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/flow%d/pkt%d", i%16, i))
		d, err := ndn.NewData(names[i], []byte("x"))
		if err != nil {
			b.Fatal(err)
		}
		datas[i] = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		idx := n % len(names)
		insert(p, ndn.NewInterest(names[idx], uint64(n)), FaceID(n%8), 0)
		satisfy(p, datas[idx], 0)
	}
}

func BenchmarkPITAggregation(b *testing.B) {
	p := NewPIT()
	name := ndn.MustParseName("/hot/content")
	insert(p, ndn.NewInterest(name, 0), 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		insert(p, ndn.NewInterest(name, uint64(n)+1), FaceID(n%64), 0)
	}
}
