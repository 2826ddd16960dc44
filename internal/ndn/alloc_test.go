package ndn

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"unsafe"
)

// These tests pin the zero-allocation contract of the borrowed-name
// parse path and the lookups over it: a borrowed Name aliases the
// caller's buffer, so parsing, hashing, comparing and walking it must
// never touch the heap. The bench numbers show the win; these make the
// regression fail `go test`.

func TestInterestNameViewZeroAlloc(t *testing.T) {
	interestWire := EncodeInterest(NewInterest(MustParseName("/cnn/news/2013may20"), 7))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := InterestNameView(interestWire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("InterestNameView: %.0f allocs/run, want 0", n)
	}
}

func TestNameViewAccessZeroAlloc(t *testing.T) {
	name := MustParseName("/a/b/c/d")
	v, err := InterestNameView(EncodeInterest(NewInterest(name, 0)))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if n := testing.AllocsPerRun(200, func() {
		for it := v.Components(); it.Next(); {
			total += len(it.Component())
		}
		total += len(v.ComponentRef(v.Len() - 1))
		for k := 0; k <= v.Len(); k++ {
			total += int(v.Prefix(k).Hash() & 1)
		}
		if !v.Equal(name) || !name.Equal(v) || v.Compare(name) != 0 || !v.IsPrefixOf(name) {
			t.Fatal("borrowed and owned names disagree")
		}
	}); n != 0 {
		t.Errorf("borrowed Name access: %.0f allocs/run, want 0", n)
	}
	if total == 0 {
		t.Fatal("accessors unexpectedly read nothing")
	}
}

// Decoding a packet's name costs one copy of its bytes and renders
// nothing, however many components it has: with the packet itself, an
// Interest decode is two allocations.
func TestDecodeInterestAllocs(t *testing.T) {
	long := MustParseName("/a")
	for i := 1; i < 20; i++ {
		long = long.AppendString(fmt.Sprintf("c%d", i))
	}
	for _, name := range []Name{MustParseName("/cnn/news/2013may20"), long} {
		wire := EncodeInterest(NewInterest(name, 0xDEADBEEF))
		if n := testing.AllocsPerRun(200, func() {
			if _, err := DecodeInterest(wire); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("DecodeInterest(%d-component name): %.0f allocs/run, want <= 2", name.Len(), n)
		}
	}
}

// A name is its bytes, hash, count and privacy marker — 40 bytes, no
// URI — so the packet headers each cached fetch copies sit one Go size
// class lower than when a name carried its rendering.
func TestPacketHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(Name{}); got > 40 {
		t.Errorf("unsafe.Sizeof(Name{}) = %d, want <= 40", got)
	}
	if got := unsafe.Sizeof(Interest{}); got > 96 {
		t.Errorf("unsafe.Sizeof(Interest{}) = %d, want <= 96", got)
	}
	if got := unsafe.Sizeof(Data{}); got > 160 {
		t.Errorf("unsafe.Sizeof(Data{}) = %d, want <= 160", got)
	}
}

func TestWireSizeZeroAlloc(t *testing.T) {
	// Sizing a packet is arithmetic on field lengths: no buffer, no
	// payload copy, whatever the payload size.
	d, err := NewData(MustParseName("/youtube/alice/video-749.avi/137"), make([]byte, 8192))
	if err != nil {
		t.Fatal(err)
	}
	d.Producer, d.Signature, d.ContentID = "alice", make([]byte, 32), "cid"
	i := NewInterest(d.Name, 1<<40).WithScope(ScopeNextHop).WithPrivacy(PrivacyRequested)
	total := 0
	if n := testing.AllocsPerRun(200, func() {
		total += DataWireSize(d) + WireSize(d) + InterestWireSize(i)
	}); n != 0 {
		t.Errorf("DataWireSize + WireSize + InterestWireSize: %.0f allocs/run, want 0", n)
	}
	if total == 0 {
		t.Fatal("sizes unexpectedly zero")
	}
}

func TestNamePrefixZeroAlloc(t *testing.T) {
	// Prefix shares the parent's bytes, and a NameMap probe compares
	// them, so walking every prefix of a name and looking each up — by
	// Prefix or by a rolling hash, as a FIB or a consumer does per
	// packet — renders and allocates nothing.
	name := MustParseName("/p/o/%00escaped%2F/1234")
	var m NameMap[int]
	m.Put(name.Prefix(2), 2)
	m.Put(name, name.Len())
	total := 0
	if n := testing.AllocsPerRun(200, func() {
		h := NameHashSeed()
		it := name.Components()
		for k := 0; k <= name.Len(); k++ {
			p := name.Prefix(k)
			byName, _ := m.Get(p)
			byHash, _ := m.GetPrefix(h, k, name)
			if byName != byHash || p.Hash() != h {
				t.Fatalf("prefix %d: Get %d, GetPrefix %d", k, byName, byHash)
			}
			total += byName + int(p.Hash()&1)
			if it.Next() {
				h = MixComponentHash(h, it.Component())
			}
		}
	}); n != 0 {
		t.Errorf("Name.Prefix walk: %.0f allocs/run, want 0", n)
	}
	if total == 0 {
		t.Fatal("prefix walk unexpectedly read nothing")
	}
}

// The encoders size their buffer arithmetically and write it in one
// pass, so an encoding is one allocation: its buffer.
func TestEncodersAllocateOnce(t *testing.T) {
	name := MustParseName("/youtube/alice/video-749.avi/137")
	i := NewInterest(name, 1<<40).WithScope(ScopeNextHop).WithPrivacy(PrivacyRequested)
	d, err := NewData(name, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	d.Producer, d.Signature, d.ContentID = "alice", make([]byte, 32), "cid"
	total := 0
	if n := testing.AllocsPerRun(200, func() { total += len(EncodeInterest(i)) }); n != 1 {
		t.Errorf("EncodeInterest: %.0f allocs/run, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { total += len(EncodeData(d)) }); n != 1 {
		t.Errorf("EncodeData: %.0f allocs/run, want 1", n)
	}
	if total == 0 {
		t.Fatal("encoders unexpectedly wrote nothing")
	}
}

// The stream reader reads into one buffer and decodes into packet
// structs it reuses, so once it exists Next allocates nothing for a
// packet a read brings whole or one split across reads (carried over in
// a buffer the framer keeps). A Data's Producer and ContentID are the
// exception: each is one string.
func TestPacketReaderAllocatesNothing(t *testing.T) {
	name := MustParseName("/youtube/alice/video-749.avi/137")
	d, err := NewData(name, make([]byte, 1024)) // 1 KB: the Length field takes the three-byte form
	if err != nil {
		t.Fatal(err)
	}
	d.Signature = make([]byte, 32)
	marked := *d
	marked.Producer, marked.ContentID = "alice", "cid"
	source := bytes.NewReader(nil)
	for _, tc := range []struct {
		reads  string
		reader io.Reader
	}{
		{"whole", source},
		{"one byte per read", iotest.OneByteReader(source)},
	} {
		for _, data := range []struct {
			fields string
			d      *Data
			allocs float64
		}{
			{"no Producer or ContentID", d, 0},
			{"Producer and ContentID", &marked, 2},
		} {
			stream := append(EncodeInterest(NewInterest(name, 7)), EncodeData(data.d)...)
			reader := NewPacketReader(tc.reader)
			total := 0
			if n := testing.AllocsPerRun(200, func() {
				source.Reset(stream)
				for range 2 {
					p, err := reader.Next()
					if err != nil {
						t.Fatal(err)
					}
					if p.Data != nil {
						total += len(p.Data.Payload) + len(p.Data.Producer)
					}
				}
			}); n != data.allocs {
				t.Errorf("%s, Data with %s: Next %.1f allocs per Interest + Data, want %.0f", tc.reads, data.fields, n, data.allocs)
			}
			if total == 0 {
				t.Fatalf("%s: reader returned no Data", tc.reads)
			}
		}
	}
}

// A Data's clone is the struct and one buffer holding the name's bytes,
// the Payload and the Signature: what a face pays to keep a Data it
// decoded borrowed.
func TestDataCloneAllocatesTwice(t *testing.T) {
	d, err := NewData(MustParseName("/youtube/alice/video-749.avi/137"), make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	d.Producer, d.Signature, d.ContentID = "alice", make([]byte, 32), "cid"
	total := 0
	if n := testing.AllocsPerRun(200, func() { total += len(d.Clone().Payload) }); n != 2 {
		t.Errorf("Data.Clone: %.0f allocs/run, want 2", n)
	}
	if total == 0 {
		t.Fatal("clones unexpectedly empty")
	}
}

// PacketWriter encodes into one buffer it keeps, so once that buffer has
// grown to the packet size a Write allocates nothing.
func TestPacketWriterZeroAlloc(t *testing.T) {
	name := MustParseName("/youtube/alice/video-749.avi/137")
	d, err := NewData(name, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	d.Producer, d.Signature, d.ContentID = "alice", make([]byte, 32), "cid"
	i := NewInterest(name, 1<<40).WithScope(ScopeNextHop).WithPrivacy(PrivacyRequested)
	var out countingWriter
	w := NewPacketWriter(&out)
	if n := testing.AllocsPerRun(200, func() {
		if err := w.Write(Packet{Interest: i}); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(Packet{Data: d}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PacketWriter.Write: %.1f allocs per Interest + Data, want 0", n)
	}
	if want := len(EncodeInterest(i)) + len(EncodeData(d)); out.n%want != 0 || out.n == 0 {
		t.Errorf("wrote %d bytes, want a multiple of %d", out.n, want)
	}
}

// countingWriter is an io.Writer that keeps nothing but a byte count.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}
