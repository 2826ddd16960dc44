package ndn

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Native fuzz harnesses for the attack surface a network-facing codec
// exposes. `go test` runs the seed corpus as regression tests;
// `go test -fuzz=FuzzDecodeInterest ./internal/ndn` explores further.

func FuzzDecodeInterest(f *testing.F) {
	f.Add(EncodeInterest(NewInterest(MustParseName("/a/b"), 7)))
	f.Add(EncodeInterest(NewInterest(MustParseName("/"), 0).WithScope(2)))
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, wire []byte) {
		i, err := DecodeInterest(wire)
		if err != nil {
			return
		}
		// Valid decodes must re-encode to something decodable and
		// equivalent.
		back, err := DecodeInterest(EncodeInterest(i))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !back.Name.Equal(i.Name) || back.Nonce != i.Nonce || back.Scope != i.Scope {
			t.Fatalf("round trip mismatch: %+v vs %+v", i, back)
		}
	})
}

func FuzzDecodeData(f *testing.F) {
	d, err := NewData(MustParseName("/x/y"), []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	d.Private = true
	d.ContentID = "cid"
	f.Add(EncodeData(d))
	f.Add([]byte{0x06, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, wire []byte) {
		parsed, err := DecodeData(wire)
		if err != nil {
			return
		}
		back, err := DecodeData(EncodeData(parsed))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !back.Name.Equal(parsed.Name) || !bytes.Equal(back.Payload, parsed.Payload) ||
			back.Private != parsed.Private || back.ContentID != parsed.ContentID {
			t.Fatalf("round trip mismatch")
		}
	})
}

// FuzzPacketStream differentially tests the stream reader, whose Data
// packets alias the buffer it read them into, against DecodePacket, which
// copies: every packet Next returns must equal DecodePacket of the same
// bytes, re-encode to a fixed point, and stay unchanged while the reader
// goes on reading — the reader must never reuse a buffer a packet holds.
func FuzzPacketStream(f *testing.F) {
	d, err := NewData(MustParseName("/s"), []byte("p"))
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	stream = append(stream, EncodeInterest(NewInterest(MustParseName("/s"), 1))...)
	stream = append(stream, EncodeData(d)...)
	f.Add(stream)
	f.Add([]byte{0xFD})
	f.Add([]byte{0x05, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})
	full := &Data{Name: MustParseName("/s/full"), Payload: bytes.Repeat([]byte("x"), 300), Producer: "p",
		Signature: []byte("sig"), Freshness: time.Second, Private: true, ContentID: "cid"}
	f.Add(append(AppendData(EncodeData(full), d), EncodeData(full)...))
	f.Fuzz(func(t *testing.T, wire []byte) {
		r := NewPacketReader(bytes.NewReader(wire))
		type seen struct {
			pkt Packet
			enc []byte // its encoding when Next returned it
		}
		var read []seen
		rest := wire
		// Must terminate (bounded by input length) and never panic.
		for i := 0; i < len(wire)+2; i++ {
			got, err := r.Next()
			if err != nil {
				for k, s := range read {
					if now, _ := EncodePacket(s.pkt); !bytes.Equal(now, s.enc) {
						t.Fatalf("packet %d changed after later reads", k)
					}
				}
				return
			}
			// The reader accepted the packet, so the outer TLV at the
			// front of what is left is exactly its bytes.
			_, _, n, err := readTLV(rest)
			if err != nil {
				t.Fatalf("packet %d: Next accepted bytes readTLV rejects: %v", i, err)
			}
			raw := rest[:n]
			rest = rest[n:]
			want, err := DecodePacket(raw)
			if err != nil {
				t.Fatalf("packet %d: Next accepted bytes DecodePacket rejects: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("packet %d: Next %+v, DecodePacket %+v", i, got, want)
			}
			enc, err := EncodePacket(got)
			if err != nil {
				t.Fatalf("packet %d: re-encode: %v", i, err)
			}
			back, err := DecodePacket(enc)
			if err != nil {
				t.Fatalf("packet %d: re-encoding does not decode: %v", i, err)
			}
			if again, _ := EncodePacket(back); !bytes.Equal(again, enc) {
				t.Fatalf("packet %d: re-encoding is not byte-identical: %x then %x", i, enc, again)
			}
			read = append(read, seen{got, enc})
		}
		t.Fatal("reader did not terminate on bounded input")
	})
}

// FuzzBorrowedName differentially tests the three ways a name is read:
// the borrowed parse of a Name TLV's value (parseNameValue, what
// InterestNameView runs), the packet decoders' owned decode of it, and
// ParseName of the URI either renders. They must accept and reject the
// same bytes, and agree on length, components, every prefix hash, URI
// and equality, for any number of components.
func FuzzBorrowedName(f *testing.F) {
	f.Add(EncodeName(nil, MustParseName("/a/b/c")))
	f.Add(EncodeName(nil, MustParseName("/")))
	f.Add(EncodeName(nil, MustParseName("/%41%42/xyz")))
	f.Add(EncodeName(nil, MustParseName("/youtube/alice/video-749.avi/137")))
	f.Add(EncodeName(nil, MustParseName(strings.Repeat("/c", 41))))
	f.Add(EncodeName(nil, Name{}.Append(make([]byte, 300))))
	f.Add([]byte{0x07, 0x00})
	f.Add([]byte{0x07, 0x02, 0x08, 0x00})
	f.Add([]byte{0x07, 0x05, 0x08, 0xFD, 0x00, 0x01, 0x61}) // non-minimal component length
	f.Add([]byte{0x07, 0x05, 0xFD, 0x00, 0x08, 0x01, 0x61}) // non-minimal component type
	f.Add([]byte{0x07, 0xFD, 0x00, 0x03, 0x08, 0x01, 0x61}) // non-minimal Name length: the same name
	f.Add([]byte{0x08, 0x01, 0x61})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, wire []byte) {
		// Read the input as one Name TLV spanning all of it, then borrow
		// and decode its value.
		typ, value, n, err := readTLV(wire)
		if err != nil || typ != tlvName || n != len(wire) {
			return
		}
		v, verr := parseNameValue(value)
		own, oerr := decodeName(value, false)
		if (verr == nil) != (oerr == nil) {
			t.Fatalf("borrowed parse error %v, owned decode error %v", verr, oerr)
		}
		if verr != nil {
			return
		}

		marked := false
		for it := v.Components(); it.Next(); {
			marked = marked || string(it.Component()) == PrivateComponent
		}
		if v.HasPrivateMarker() != marked {
			t.Fatalf("borrowed name %q: private marker %t, its components say %t", v, v.HasPrivateMarker(), marked)
		}

		names := []Name{v, own, v.Clone()}
		empty := false
		for it := own.Components(); it.Next(); {
			empty = empty || len(it.Component()) == 0
		}
		if !empty {
			// The URI form cannot spell an empty component.
			parsed, err := ParseName(own.String())
			if err != nil {
				t.Fatalf("URI %q of an accepted name does not parse: %v", own.String(), err)
			}
			names = append(names, parsed)
		}
		for i, n := range names[1:] {
			if n.Len() != v.Len() {
				t.Fatalf("form %d: %d components, borrowed %d", i+1, n.Len(), v.Len())
			}
			for k := 0; k < v.Len(); k++ {
				if !bytes.Equal(n.ComponentRef(k), v.ComponentRef(k)) {
					t.Fatalf("form %d: component %d %x, borrowed %x", i+1, k, n.ComponentRef(k), v.ComponentRef(k))
				}
			}
			for k := 0; k <= v.Len(); k++ {
				if n.Prefix(k).Hash() != v.Prefix(k).Hash() {
					t.Fatalf("form %d: prefix hash %d %#x, borrowed %#x", i+1, k, n.Prefix(k).Hash(), v.Prefix(k).Hash())
				}
			}
			if n.String() != v.String() || n.HasPrivateMarker() != v.HasPrivateMarker() {
				t.Fatalf("form %d: URI %q, borrowed %q", i+1, n, v)
			}
			if !n.Equal(v) || !v.Equal(n) || n.Compare(v) != 0 {
				t.Fatalf("form %d: %q not equal to the borrowed name", i+1, n)
			}
		}
		// The canonical encoding, inside an Interest, borrows back to the
		// same name.
		back, err := InterestNameView(EncodeInterest(NewInterest(own, 1)))
		if err != nil {
			t.Fatalf("re-encoded name unparsable: %v", err)
		}
		if back.Hash() != v.Hash() || !back.Equal(v) {
			t.Fatalf("re-encode round trip mismatch: %q vs %q", back, v)
		}
	})
}

func FuzzParseName(f *testing.F) {
	f.Add("/a/b/c")
	f.Add("/")
	f.Add("/%41%42")
	f.Add("/a//b")
	f.Add("")
	f.Fuzz(func(t *testing.T, uri string) {
		n, err := ParseName(uri)
		if err != nil {
			return
		}
		// Canonical rendering must re-parse to an equal name.
		back, err := ParseName(n.String())
		if err != nil {
			t.Fatalf("canonical form unparsable: %q: %v", n.String(), err)
		}
		if !back.Equal(n) {
			t.Fatalf("canonical round trip mismatch: %q", uri)
		}
	})
}

// FuzzWireSize holds the arithmetic sizes equal to the encoders they
// replace on the packet path: DataWireSize/InterestWireSize must track
// EncodeData/EncodeInterest field for field, whatever the lengths.
func FuzzWireSize(f *testing.F) {
	f.Add([]byte("a/b"), []byte("payload"), "producer", []byte("sig"), "cid", uint64(7), uint64(4000), uint8(0), uint8(0), false)
	f.Add([]byte{}, []byte{1}, "", []byte{}, "", uint64(0), uint64(0), uint8(2), uint8(1), true)
	f.Add(bytes.Repeat([]byte{0xFF}, 253), bytes.Repeat([]byte{1}, 65536), "", []byte{}, "", uint64(1<<64-1), uint64(1<<40), uint8(255), uint8(2), false)
	f.Fuzz(func(t *testing.T, rawName, payload []byte, producer string, sig []byte, contentID string, nonce, ms uint64, scope, privacy uint8, private bool) {
		// '/' splits rawName into components; empty ones are dropped
		// (the codec has no empty component).
		var comps [][]byte
		for _, c := range bytes.Split(rawName, []byte{'/'}) {
			if len(c) > 0 {
				comps = append(comps, c)
			}
		}
		name := Name{}.Append(comps...)
		lifetime := time.Duration(ms%(1<<40)) * time.Millisecond
		d := &Data{Name: name, Payload: payload, Producer: producer, Signature: sig,
			Freshness: lifetime, Private: private, ContentID: contentID}
		if got, want := DataWireSize(d), len(EncodeData(d)); got != want {
			t.Fatalf("DataWireSize = %d, len(EncodeData) = %d for %+v", got, want, d)
		}
		i := &Interest{Name: name, Nonce: nonce, Scope: scope, Lifetime: lifetime, Privacy: Privacy(privacy % 3)}
		if got, want := InterestWireSize(i), len(EncodeInterest(i)); got != want {
			t.Fatalf("InterestWireSize = %d, len(EncodeInterest) = %d for %+v", got, want, i)
		}
	})
}
