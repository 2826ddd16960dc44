package ndn

import (
	"bytes"
	"testing"
)

// These tests pin the zero-allocation contract of the view parse path
// and the lookup helpers under it: a NameView is fixed-size arrays
// plus one slice header aliasing the caller's buffer, so parsing,
// hashing, and component access must never touch the heap. The bench
// numbers show the win; these make the regression fail `go test`.

func TestParseNameViewZeroAlloc(t *testing.T) {
	wire := EncodeName(nil, MustParseName("/youtube/alice/video-749.avi/137"))
	var hash uint64
	if n := testing.AllocsPerRun(200, func() {
		v, err := ParseNameView(wire)
		if err != nil {
			t.Fatal(err)
		}
		hash ^= v.Hash()
	}); n != 0 {
		t.Errorf("ParseNameView: %.0f allocs/run, want 0", n)
	}
	if hash == 0 {
		t.Fatal("hash unexpectedly zero")
	}
}

func TestInterestNameViewZeroAlloc(t *testing.T) {
	name := MustParseName("/cnn/news/2013may20")
	d, err := NewData(name, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	interestWire, dataWire := EncodeInterest(NewInterest(name, 7)), EncodeData(d)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := InterestNameView(interestWire); err != nil {
			t.Fatal(err)
		}
		if _, err := DataNameView(dataWire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("InterestNameView + DataNameView: %.0f allocs/run, want 0", n)
	}
}

func TestNameViewAccessZeroAlloc(t *testing.T) {
	name := MustParseName("/a/b/c/d")
	wire := EncodeName(nil, name)
	v, err := ParseNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < v.Len(); i++ {
			total += len(v.Component(i))
		}
		for k := 0; k <= v.Len(); k++ {
			total += int(v.PrefixHash(k) & 1)
		}
		if !v.EqualName(name) {
			t.Fatal("EqualName mismatch")
		}
	}); n != 0 {
		t.Errorf("NameView access: %.0f allocs/run, want 0", n)
	}
	if total == 0 {
		t.Fatal("accessors unexpectedly read nothing")
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
	// Prefix shares the parent's components and slices its URI, so
	// walking every prefix of a name (Consumer.deliver does, per
	// arriving Data) never renders a string.
	name := MustParseName("/p/o/%00escaped%2F/1234")
	total := 0
	if n := testing.AllocsPerRun(200, func() {
		for k := 0; k <= name.Len(); k++ {
			total += len(name.Prefix(k).Key())
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
// plus that buffer, less the copies the decode would make of a Data's
// Payload and Signature — Next slices them from the buffer instead.
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
		// saved is what the owned decode does not copy.
		saved float64
	}{
		{"Interest", EncodeInterest(NewInterest(name, 7)), func(w []byte) error { _, err := DecodeInterest(w); return err }, 0},
		{"Data", EncodeData(d), func(w []byte) error { _, err := DecodeData(w); return err }, 2},
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
		if want := decode + 1 - tc.saved; next != want {
			t.Errorf("%s: Next %.0f allocs/run, want %.0f: decoding alone %.0f, +1 packet buffer, -%.0f payload/signature copies", tc.kind, next, want, decode, tc.saved)
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
