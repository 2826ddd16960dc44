package ndn

import (
	"fmt"
	"testing"
)

func BenchmarkParseName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseName("/youtube/alice/video-749.avi/137"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNameView is the borrowed counterpart of
// BenchmarkParseName: the same name, parsed in place over its wire form
// instead of from the URI (target: 0 allocs/op, ≥10× faster).
func BenchmarkParseNameView(b *testing.B) {
	wire := EncodeName(nil, MustParseName("/youtube/alice/video-749.avi/137"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseNameView(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterestNameView measures the wire→lookup-key fast path: find
// and borrow the Name inside a full encoded Interest without decoding it.
func BenchmarkInterestNameView(b *testing.B) {
	wire := EncodeInterest(NewInterest(MustParseName("/cnn/news/2013may20"), 0xDEADBEEF))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InterestNameView(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNameIsPrefixOf(b *testing.B) {
	short := MustParseName("/cnn/news")
	long := MustParseName("/cnn/news/2013may20/segment/17")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !short.IsPrefixOf(long) {
			b.Fatal("prefix check failed")
		}
	}
}

func BenchmarkEncodeInterest(b *testing.B) {
	i := NewInterest(MustParseName("/cnn/news/2013may20"), 0xDEADBEEF).WithPrivacy(PrivacyRequested)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		EncodeInterest(i)
	}
}

func BenchmarkDecodeInterest(b *testing.B) {
	wire := EncodeInterest(NewInterest(MustParseName("/cnn/news/2013may20"), 0xDEADBEEF))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := DecodeInterest(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeData1KB(b *testing.B) {
	d, err := NewData(MustParseName("/bob/file/0"), make([]byte, 1024))
	if err != nil {
		b.Fatal(err)
	}
	signer, err := NewSigner("/bob", []byte("key"))
	if err != nil {
		b.Fatal(err)
	}
	signer.Sign(d)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		EncodeData(d)
	}
}

func BenchmarkDecodeData1KB(b *testing.B) {
	d, err := NewData(MustParseName("/bob/file/0"), make([]byte, 1024))
	if err != nil {
		b.Fatal(err)
	}
	wire := EncodeData(d)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := DecodeData(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignData(b *testing.B) {
	signer, err := NewSigner("/bob", []byte("key"))
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewData(MustParseName("/bob/doc"), make([]byte, 1024))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		signer.Sign(d)
	}
}

func BenchmarkUnpredictableName(b *testing.B) {
	ss, err := NewSharedSecret([]byte("secret"))
	if err != nil {
		b.Fatal(err)
	}
	base := MustParseName("/alice/skype/0")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ss.UnpredictableName(base, uint64(n))
	}
}

func BenchmarkSegmentReassemble(b *testing.B) {
	payload := make([]byte, 64*1024)
	segs, err := Segment(MustParseName("/v/movie"), payload, 1024, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Reassemble(segs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNameKeyMapInsert(b *testing.B) {
	names := make([]Name, 1000)
	for i := range names {
		names[i] = MustParseName(fmt.Sprintf("/site/%d/obj/%d", i%17, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m := make(map[string]int, len(names))
		for i, name := range names {
			m[name.Key()] = i
		}
	}
}
