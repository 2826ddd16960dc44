package ndn

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestInterestWireRoundTrip(t *testing.T) {
	cases := []*Interest{
		NewInterest(MustParseName("/cnn/news/2013may20"), 0xDEADBEEF),
		NewInterest(MustParseName("/a"), 0).WithScope(ScopeNextHop),
		NewInterest(MustParseName("/x/y"), 7).WithPrivacy(PrivacyRequested),
		{Name: MustParseName("/z"), Nonce: 1<<64 - 1, Lifetime: 250 * time.Millisecond},
		{Name: MustParseName("/"), Nonce: 3},
	}
	for _, in := range cases {
		t.Run(in.Name.String(), func(t *testing.T) {
			wire := EncodeInterest(in)
			out, err := DecodeInterest(wire)
			if err != nil {
				t.Fatalf("DecodeInterest: %v", err)
			}
			if !out.Name.Equal(in.Name) || out.Nonce != in.Nonce ||
				out.Scope != in.Scope || out.Lifetime != in.Lifetime ||
				out.Privacy != in.Privacy {
				t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
			}
		})
	}
}

func TestDataWireRoundTrip(t *testing.T) {
	signer, err := NewSigner("/bob", []byte("bob-key"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewData(MustParseName("/bob/file/0"), bytes.Repeat([]byte("ab"), 300))
	if err != nil {
		t.Fatal(err)
	}
	d.Freshness = 2 * time.Second
	d.Private = true
	signer.Sign(d)

	wire := EncodeData(d)
	out, err := DecodeData(wire)
	if err != nil {
		t.Fatalf("DecodeData: %v", err)
	}
	if !out.Name.Equal(d.Name) || !bytes.Equal(out.Payload, d.Payload) ||
		out.Producer != d.Producer || !bytes.Equal(out.Signature, d.Signature) ||
		out.Freshness != d.Freshness || out.Private != d.Private {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", d, out)
	}
	if err := signer.Verify(out); err != nil {
		t.Errorf("signature did not survive the wire: %v", err)
	}
}

func TestDecodeRejectsWrongOuterType(t *testing.T) {
	i := NewInterest(MustParseName("/a"), 1)
	if _, err := DecodeData(EncodeInterest(i)); err == nil {
		t.Error("DecodeData accepted an Interest")
	}
	d, _ := NewData(MustParseName("/a"), []byte("x"))
	if _, err := DecodeInterest(EncodeData(d)); err == nil {
		t.Error("DecodeInterest accepted a Data")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	wire := EncodeInterest(NewInterest(MustParseName("/abc/def"), 99))
	for cut := 1; cut < len(wire); cut++ {
		if _, err := DecodeInterest(wire[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	wire := EncodeInterest(NewInterest(MustParseName("/a"), 1))
	wire = append(wire, 0x00)
	if _, err := DecodeInterest(wire); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestDecodeRejectsMissingFields(t *testing.T) {
	// Interest with no Name: outer TLV wrapping only a nonce.
	inner := appendUintTLV(nil, tlvNonce, 5)
	wire := appendTLV(nil, tlvInterest, inner)
	if _, err := DecodeInterest(wire); err == nil {
		t.Error("Interest without Name accepted")
	}
	// Data with name but no payload.
	var dInner []byte
	dInner = EncodeName(dInner, MustParseName("/a"))
	dWire := appendTLV(nil, tlvData, dInner)
	if _, err := DecodeData(dWire); err == nil {
		t.Error("Data without Payload accepted")
	}
}

func TestDecodeSkipsUnknownTLVs(t *testing.T) {
	var inner []byte
	inner = EncodeName(inner, MustParseName("/a"))
	inner = appendUintTLV(inner, tlvNonce, 9)
	inner = appendTLV(inner, 0xF0, []byte("future extension"))
	wire := appendTLV(nil, tlvInterest, inner)
	out, err := DecodeInterest(wire)
	if err != nil {
		t.Fatalf("unknown TLV broke decoding: %v", err)
	}
	if out.Nonce != 9 {
		t.Errorf("Nonce = %d, want 9", out.Nonce)
	}
}

func TestVarNumBoundaries(t *testing.T) {
	values := []uint64{0, 1, 252, 253, 254, 0xFFFF, 0x10000, 0xFFFFFFFF, 0x100000000, 1<<64 - 1}
	for _, v := range values {
		b := appendVarNum(nil, v)
		got, n, err := readVarNum(b)
		if err != nil {
			t.Fatalf("readVarNum(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("varnum %d: got %d consumed %d of %d", v, got, n, len(b))
		}
	}
}

func TestDecodeUintBounds(t *testing.T) {
	if _, err := decodeUint(nil); err == nil {
		t.Error("empty integer accepted")
	}
	if _, err := decodeUint(make([]byte, 9)); err == nil {
		t.Error("9-byte integer accepted")
	}
	v, err := decodeUint([]byte{0x01, 0x00})
	if err != nil || v != 256 {
		t.Errorf("decodeUint(0100) = %d, %v; want 256", v, err)
	}
}

func TestDecodeRejectsOutOfRangeEnums(t *testing.T) {
	var inner []byte
	inner = EncodeName(inner, MustParseName("/a"))
	inner = appendUintTLV(inner, tlvScope, 300)
	wire := appendTLV(nil, tlvInterest, inner)
	if _, err := DecodeInterest(wire); err == nil {
		t.Error("scope 300 accepted")
	}

	inner = nil
	inner = EncodeName(inner, MustParseName("/a"))
	inner = appendUintTLV(inner, tlvPrivacyMark, 17)
	wire = appendTLV(nil, tlvInterest, inner)
	if _, err := DecodeInterest(wire); err == nil {
		t.Error("privacy mark 17 accepted")
	}
}

// forEachPacketShape calls data and interest with every combination of
// optional fields at every var-number width boundary: a length of 252
// takes one byte, 253 three, 65535 three, 65536 five.
func forEachPacketShape(data func(*Data), interest func(*Interest)) {
	boundaries := []int{1, 252, 253, 65535, 65536}
	names := []Name{
		{},                 // literal zero value
		MustParseName("/"), // root
		MustParseName("/bob/big"),
		Name{}.Append([]byte{0x00, '%', '/', 0xFF}, []byte("a b")), // escaped in the URI, raw on the wire
		Name{}.Append(make([]byte, 252)),
		Name{}.Append(make([]byte, 253)),                    // component length field widens
		Name{}.Append(make([]byte, 120), make([]byte, 127)), // name value 251 B
		Name{}.Append(make([]byte, 120), make([]byte, 129)), // name value 253 B: Name length field widens
		Name{}.Append(make([]byte, 65536)),
	}
	for _, name := range names {
		for _, n := range boundaries {
			for opts := 0; opts < 32; opts++ {
				d := &Data{Name: name, Payload: make([]byte, n)}
				if opts&1 != 0 {
					d.Producer = string(make([]byte, n))
				}
				if opts&2 != 0 {
					d.Signature = make([]byte, n)
				}
				if opts&4 != 0 {
					d.Freshness = time.Duration(n) * time.Millisecond
				}
				d.Private = opts&8 != 0
				if opts&16 != 0 {
					d.ContentID = string(make([]byte, n))
				}
				data(d)
			}
		}
		nonces := []uint64{0, 255, 256, 65535, 65536, 1<<32 - 1, 1 << 32, 1<<64 - 1}
		lifetimes := []time.Duration{0, time.Microsecond, time.Millisecond, 255 * time.Millisecond, 256 * time.Millisecond, DefaultInterestLifetime, 1<<63 - 1}
		for _, nonce := range nonces {
			for _, lifetime := range lifetimes {
				for _, scope := range []uint8{ScopeUnlimited, ScopeLocal, ScopeNextHop, 255} {
					for _, privacy := range []Privacy{PrivacyUnmarked, PrivacyRequested, PrivacyDeclined} {
						interest(&Interest{Name: name, Nonce: nonce, Scope: scope, Lifetime: lifetime, Privacy: privacy})
					}
				}
			}
		}
	}
}

// The arithmetic sizes must equal the encoded lengths across every
// optional field and every var-number width boundary.
func TestWireSizeMatchesEncoding(t *testing.T) {
	forEachPacketShape(func(d *Data) {
		want := len(EncodeData(d))
		if got := DataWireSize(d); got != want {
			t.Fatalf("DataWireSize(%d-component name, payload %d) = %d, want %d", d.Name.Len(), len(d.Payload), got, want)
		}
		if got := WireSize(d); got != want {
			t.Fatalf("WireSize = %d, want %d", got, want)
		}
	}, func(i *Interest) {
		if got, want := InterestWireSize(i), len(EncodeInterest(i)); got != want {
			t.Fatalf("InterestWireSize(%v lifetime=%v) = %d, want %d", i, i.Lifetime, got, want)
		}
	})
}

// nestedEncodeInterest and nestedEncodeData are the encoders as they
// were before they wrote in one pass: every element's value assembled
// in its own buffer, then wrapped. They are the reference the bytes are
// held to — file-tier records and signatures were made over this output.
func nestedEncodeName(n Name) []byte {
	var inner []byte
	for i := 0; i < n.Len(); i++ {
		inner = appendTLV(inner, tlvComponent, n.ComponentRef(i))
	}
	return appendTLV(nil, tlvName, inner)
}

func nestedEncodeInterest(i *Interest) []byte {
	inner := nestedEncodeName(i.Name)
	inner = appendUintTLV(inner, tlvNonce, i.Nonce)
	if i.Scope != ScopeUnlimited {
		inner = appendUintTLV(inner, tlvScope, uint64(i.Scope))
	}
	if i.Lifetime > 0 {
		inner = appendUintTLV(inner, tlvInterestLifetime, uint64(i.Lifetime/time.Millisecond))
	}
	if i.Privacy != PrivacyUnmarked {
		inner = appendUintTLV(inner, tlvPrivacyMark, uint64(i.Privacy))
	}
	return appendTLV(nil, tlvInterest, inner)
}

func nestedEncodeData(d *Data) []byte {
	inner := nestedEncodeName(d.Name)
	inner = appendTLV(inner, tlvPayload, d.Payload)
	if d.Producer != "" {
		inner = appendTLV(inner, tlvProducer, []byte(d.Producer))
	}
	if len(d.Signature) > 0 {
		inner = appendTLV(inner, tlvSignature, d.Signature)
	}
	if d.Freshness > 0 {
		inner = appendUintTLV(inner, tlvFreshness, uint64(d.Freshness/time.Millisecond))
	}
	if d.Private {
		inner = appendUintTLV(inner, tlvPrivacyMark, 1)
	}
	if d.ContentID != "" {
		inner = appendTLV(inner, tlvContentID, []byte(d.ContentID))
	}
	return appendTLV(nil, tlvData, inner)
}

// TestEncodersMatchNestedReference: the one-pass encoders emit exactly
// the bytes the nested ones did, for every packet shape, and fill the
// buffer they sized without growing it.
func TestEncodersMatchNestedReference(t *testing.T) {
	fill := func(b []byte, seed byte) {
		for i := range b {
			b[i] = seed + byte(i)
		}
	}
	forEachPacketShape(func(d *Data) {
		fill(d.Payload, 1)
		fill(d.Signature, 2)
		got := EncodeData(d)
		if want := nestedEncodeData(d); !bytes.Equal(got, want) {
			t.Fatalf("EncodeData(%d-component name, payload %d) differs from the nested encoding (%d vs %d bytes)", d.Name.Len(), len(d.Payload), len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("EncodeData sized its buffer %d for %d bytes", cap(got), len(got))
		}
	}, func(i *Interest) {
		got := EncodeInterest(i)
		if want := nestedEncodeInterest(i); !bytes.Equal(got, want) {
			t.Fatalf("EncodeInterest(%v lifetime=%v) = %x, nested encoding %x", i, i.Lifetime, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("EncodeInterest sized its buffer %d for %d bytes", cap(got), len(got))
		}
	})
	name := MustParseName("/youtube/alice/video-749.avi/137")
	if got, want := EncodeName([]byte("prefix"), name), append([]byte("prefix"), nestedEncodeName(name)...); !bytes.Equal(got, want) {
		t.Errorf("EncodeName onto a non-empty buffer = %x, want %x", got, want)
	}
}

// TestAppendOntoPrefix: appending a packet to a non-empty buffer leaves
// the buffer's bytes alone and adds exactly what Encode… returns, for
// every packet shape — what netface relies on when it queues many
// packets in one send buffer.
func TestAppendOntoPrefix(t *testing.T) {
	prefix := []byte("queued bytes")
	check := func(kind string, got, encoded []byte) {
		t.Helper()
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%s overwrote the prefix: %q", kind, got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], encoded) {
			t.Fatalf("%s appended %d bytes that differ from Encode's %d", kind, len(got)-len(prefix), len(encoded))
		}
	}
	// Full: the append must grow the buffer. Roomy: it must not need to.
	full, roomy := slices.Clip(prefix), make([]byte, 0, 1<<19)
	forEachPacketShape(func(d *Data) {
		check("AppendData", AppendData(full, d), EncodeData(d))
		check("AppendData (roomy)", AppendData(append(roomy[:0], prefix...), d), EncodeData(d))
	}, func(i *Interest) {
		check("AppendInterest", AppendInterest(full, i), EncodeInterest(i))
		check("AppendInterest (roomy)", AppendInterest(append(roomy[:0], prefix...), i), EncodeInterest(i))
	})
}

// Property: arbitrary interests survive the codec.
func TestInterestWireProperty(t *testing.T) {
	f := func(comps [][]byte, nonce uint64, scope uint8, privacy uint8, lifetimeMS uint16) bool {
		for _, c := range comps {
			if len(c) == 0 {
				return true
			}
		}
		in := &Interest{
			Name:     Name{}.Append(comps...),
			Nonce:    nonce,
			Scope:    scope,
			Lifetime: time.Duration(lifetimeMS) * time.Millisecond,
			Privacy:  Privacy(privacy % 3),
		}
		out, err := DecodeInterest(EncodeInterest(in))
		if err != nil {
			return false
		}
		return out.Name.Equal(in.Name) && out.Nonce == in.Nonce &&
			out.Scope == in.Scope && out.Lifetime == in.Lifetime &&
			out.Privacy == in.Privacy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary data packets survive the codec.
func TestDataWireProperty(t *testing.T) {
	f := func(comps [][]byte, payload []byte, producer string, freshMS uint16, private bool) bool {
		for _, c := range comps {
			if len(c) == 0 {
				return true
			}
		}
		if len(payload) == 0 {
			return true
		}
		in, err := NewData(Name{}.Append(comps...), payload)
		if err != nil {
			return false
		}
		in.Producer = producer
		in.Freshness = time.Duration(freshMS) * time.Millisecond
		in.Private = private
		out, err := DecodeData(EncodeData(in))
		if err != nil {
			return false
		}
		return out.Name.Equal(in.Name) && bytes.Equal(out.Payload, in.Payload) &&
			out.Producer == in.Producer && out.Freshness == in.Freshness &&
			out.Private == in.Private
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: random byte strings never decode cleanly into both packet
// types at once, and never panic.
func TestDecodeFuzzProperty(t *testing.T) {
	f := func(junk []byte) bool {
		i, errI := DecodeInterest(junk)
		d, errD := DecodeData(junk)
		if errI == nil && errD == nil {
			return false // outer types are distinct; both cannot succeed
		}
		_ = i
		_ = d
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataContentIDRoundTrip(t *testing.T) {
	d, err := NewData(MustParseName("/siteA/page"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	d.ContentID = "story-42"
	out, err := DecodeData(EncodeData(d))
	if err != nil {
		t.Fatal(err)
	}
	if out.ContentID != "story-42" {
		t.Errorf("ContentID = %q, want story-42", out.ContentID)
	}
	// Unset content-id stays unset and adds no wire bytes.
	plain, err := NewData(MustParseName("/siteA/page"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(EncodeData(plain)) >= len(EncodeData(d)) {
		t.Error("unset ContentID not omitted from the wire")
	}
	back, err := DecodeData(EncodeData(plain))
	if err != nil {
		t.Fatal(err)
	}
	if back.ContentID != "" {
		t.Errorf("ContentID = %q, want empty", back.ContentID)
	}
}

func TestVerifyDetectsContentIDTampering(t *testing.T) {
	// The content-id drives router-side privacy grouping (Section VI
	// extension), so an adversary must not be able to strip or alter it.
	s, err := NewSigner("/bob", []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewData(MustParseName("/bob/doc"), []byte("content"))
	if err != nil {
		t.Fatal(err)
	}
	d.ContentID = "story"
	s.Sign(d)
	stripped := d.Clone()
	stripped.ContentID = ""
	if err := s.Verify(stripped); !errors.Is(err, ErrBadSignature) {
		t.Errorf("content-id stripping: err = %v, want ErrBadSignature", err)
	}
}

func TestSignerRejectsBadInputs(t *testing.T) {
	if _, err := NewSigner("", []byte("k")); err == nil {
		t.Error("empty producer accepted")
	}
	if _, err := NewSigner("/p", nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestSignVerify(t *testing.T) {
	s, err := NewSigner("/bob", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewData(MustParseName("/bob/doc"), []byte("content"))
	s.Sign(d)
	if d.Producer != "/bob" {
		t.Errorf("Sign did not stamp producer: %q", d.Producer)
	}
	if err := s.Verify(d); err != nil {
		t.Errorf("Verify of freshly signed packet: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	s, _ := NewSigner("/bob", []byte("secret"))
	d, _ := NewData(MustParseName("/bob/doc"), []byte("content"))
	s.Sign(d)

	tampered := d.Clone()
	tampered.Payload[0] ^= 0xFF
	if err := s.Verify(tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("payload tampering: err = %v, want ErrBadSignature", err)
	}

	renamed := d.Clone()
	renamed.Name = MustParseName("/bob/other")
	if err := s.Verify(renamed); !errors.Is(err, ErrBadSignature) {
		t.Errorf("name tampering: err = %v, want ErrBadSignature", err)
	}

	flipped := d.Clone()
	flipped.Private = true
	if err := s.Verify(flipped); !errors.Is(err, ErrBadSignature) {
		t.Errorf("privacy-bit tampering: err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsWrongProducer(t *testing.T) {
	bob, _ := NewSigner("/bob", []byte("bob-key"))
	eve, _ := NewSigner("/eve", []byte("eve-key"))
	d, _ := NewData(MustParseName("/bob/doc"), []byte("content"))
	bob.Sign(d)
	if err := eve.Verify(d); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-producer verify: err = %v, want ErrBadSignature", err)
	}
}

func TestUnpredictableNameDeterministic(t *testing.T) {
	ssA, _ := NewSharedSecret([]byte("shared"))
	ssB, _ := NewSharedSecret([]byte("shared"))
	base := MustParseName("/alice/skype/0")
	if !ssA.UnpredictableName(base, 5).Equal(ssB.UnpredictableName(base, 5)) {
		t.Error("same secret + seq produced different names")
	}
	if ssA.UnpredictableName(base, 5).Equal(ssA.UnpredictableName(base, 6)) {
		t.Error("different seq produced identical names")
	}
	other, _ := NewSharedSecret([]byte("other"))
	if ssA.UnpredictableName(base, 5).Equal(other.UnpredictableName(base, 5)) {
		t.Error("different secrets produced identical names")
	}
}

func TestUnpredictableNameExtendsBase(t *testing.T) {
	ss, _ := NewSharedSecret([]byte("k"))
	base := MustParseName("/alice/skype/0")
	n := ss.UnpredictableName(base, 0)
	if !base.IsPrefixOf(n) || n.Len() != base.Len()+1 {
		t.Errorf("unpredictable name %q does not extend base %q by one component", n, base)
	}
	if !hasUnpredictableSuffix(n) {
		t.Error("suffix not recognized as unpredictable")
	}
	if hasUnpredictableSuffix(base) {
		t.Error("base falsely recognized as unpredictable")
	}
}

func TestNewSharedSecretRejectsEmpty(t *testing.T) {
	if _, err := NewSharedSecret(nil); err == nil {
		t.Error("empty shared secret accepted")
	}
}
