package ndn

import (
	"bytes"
	"fmt"
	"testing"
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
// pass, and the stream reader frames a packet in scratch it owns: ndnd
// pays both on every packet it sends or receives.
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

// The stream reader frames a packet in scratch it owns and reads it into
// one buffer of its own, which the packet keeps: Next costs the decode
// plus that buffer, less the copies the decode would make of the name's
// bytes and a Data's Payload and Signature — Next slices them from the
// buffer instead. What is left is the packet struct and its buffer: no
// rendered name.
func TestPacketReaderFramingAllocatesOnlyThePacket(t *testing.T) {
	name := MustParseName("/youtube/alice/video-749.avi/137")
	d, err := NewData(name, make([]byte, 1024)) // 1 KB: the Length field takes the three-byte form
	if err != nil {
		t.Fatal(err)
	}
	d.Signature = make([]byte, 32)
	for _, tc := range []struct {
		kind   string
		wire   []byte
		decode func([]byte) error
		// saved is what the owned decode does not copy; next is what Next
		// costs.
		saved, next float64
	}{
		{"Interest", EncodeInterest(NewInterest(name, 7)), func(w []byte) error { _, err := DecodeInterest(w); return err }, 1, 2},
		{"Data", EncodeData(d), func(w []byte) error { _, err := DecodeData(w); return err }, 3, 2},
	} {
		decode := testing.AllocsPerRun(200, func() {
			if err := tc.decode(tc.wire); err != nil {
				t.Fatal(err)
			}
		})
		source := bytes.NewReader(nil)
		reader := NewPacketReader(source)
		next := testing.AllocsPerRun(200, func() {
			source.Reset(tc.wire)
			if _, err := reader.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if want := decode + 1 - tc.saved; next != want || next != tc.next {
			t.Errorf("%s: Next %.0f allocs/run, want %.0f: decoding alone %.0f, +1 packet buffer, -%.0f name/payload/signature copies", tc.kind, next, tc.next, decode, tc.saved)
		}
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
