package ndn

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestPacketStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPacketWriter(&buf)

	interests := []*Interest{
		NewInterest(MustParseName("/a/b"), 1),
		NewInterest(MustParseName("/c"), 2).WithScope(ScopeNextHop),
	}
	d, err := NewData(MustParseName("/a/b/c"), bytes.Repeat([]byte("x"), 500))
	if err != nil {
		t.Fatal(err)
	}
	d.Private = true

	for _, i := range interests {
		if err := w.Write(Packet{Interest: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(Packet{Data: d}); err != nil {
		t.Fatal(err)
	}

	r := NewPacketReader(&buf)
	for idx, want := range interests {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", idx, err)
		}
		if p.Interest == nil || !p.Interest.Name.Equal(want.Name) || p.Interest.Nonce != want.Nonce {
			t.Errorf("packet %d mismatch: %+v", idx, p)
		}
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Data == nil || !p.Data.Name.Equal(d.Name) || !bytes.Equal(p.Data.Payload, d.Payload) || !p.Data.Private {
		t.Errorf("data mismatch: %+v", p)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: err = %v, want io.EOF", err)
	}
}

func TestPacketReaderTruncatedStream(t *testing.T) {
	wire := EncodeInterest(NewInterest(MustParseName("/abc/def"), 9))
	for cut := 1; cut < len(wire); cut++ {
		r := NewPacketReader(bytes.NewReader(wire[:cut]))
		if _, err := r.Next(); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d reported clean EOF", cut)
		}
	}
}

func TestPacketReaderRejectsUnknownOuterType(t *testing.T) {
	junk := appendTLV(nil, 0x42, []byte("zzz"))
	r := NewPacketReader(bytes.NewReader(junk))
	if _, err := r.Next(); err == nil {
		t.Error("unknown outer type accepted")
	}
}

func TestPacketReaderRejectsOversized(t *testing.T) {
	// Hand-craft a header declaring a huge Data packet.
	var hdr []byte
	hdr = appendVarNum(hdr, tlvData)
	hdr = appendVarNum(hdr, MaxPacketSize+1)
	r := NewPacketReader(bytes.NewReader(hdr))
	if _, err := r.Next(); !errors.Is(err, ErrPacketTooLarge) {
		t.Errorf("err = %v, want ErrPacketTooLarge", err)
	}
}

func TestPacketWriterRejectsOversized(t *testing.T) {
	d, err := NewData(MustParseName("/big"), make([]byte, MaxPacketSize))
	if err != nil {
		t.Fatal(err)
	}
	w := NewPacketWriter(io.Discard)
	if err := w.Write(Packet{Data: d}); !errors.Is(err, ErrPacketTooLarge) {
		t.Errorf("err = %v, want ErrPacketTooLarge", err)
	}
}

func TestEncodePacketValidation(t *testing.T) {
	if _, err := EncodePacket(Packet{}); err == nil {
		t.Error("empty packet accepted")
	}
	i := NewInterest(MustParseName("/x"), 1)
	d, err := NewData(MustParseName("/x"), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodePacket(Packet{Interest: i, Data: d}); err == nil {
		t.Error("double packet accepted")
	}
}

func TestDecodePacketDispatch(t *testing.T) {
	i := NewInterest(MustParseName("/x"), 7)
	p, err := DecodePacket(EncodeInterest(i))
	if err != nil || p.Interest == nil || p.Data != nil {
		t.Errorf("interest dispatch failed: %+v, %v", p, err)
	}
	d, err := NewData(MustParseName("/y"), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	p, err = DecodePacket(EncodeData(d))
	if err != nil || p.Data == nil || p.Interest != nil {
		t.Errorf("data dispatch failed: %+v, %v", p, err)
	}
	if _, err := DecodePacket([]byte{0x42, 0x00}); err == nil {
		t.Error("unknown type dispatched")
	}
}

// Property: any sequence of valid packets survives stream framing, in
// order.
func TestPacketStreamProperty(t *testing.T) {
	f := func(specs []struct {
		IsData  bool
		Comp    []byte
		Payload []byte
		Nonce   uint64
	}) bool {
		var buf bytes.Buffer
		w := NewPacketWriter(&buf)
		var sent []Packet
		for _, s := range specs {
			if len(s.Comp) == 0 {
				continue
			}
			name := Name{}.Append(s.Comp)
			if s.IsData {
				if len(s.Payload) == 0 || len(s.Payload) > 4096 {
					continue
				}
				d, err := NewData(name, s.Payload)
				if err != nil {
					return false
				}
				p := Packet{Data: d}
				if err := w.Write(p); err != nil {
					return false
				}
				sent = append(sent, p)
			} else {
				p := Packet{Interest: NewInterest(name, s.Nonce)}
				if err := w.Write(p); err != nil {
					return false
				}
				sent = append(sent, p)
			}
		}
		r := NewPacketReader(&buf)
		for _, want := range sent {
			got, err := r.Next()
			if err != nil {
				return false
			}
			switch {
			case want.Interest != nil:
				if got.Interest == nil || !got.Interest.Name.Equal(want.Interest.Name) ||
					got.Interest.Nonce != want.Interest.Nonce {
					return false
				}
			case want.Data != nil:
				if got.Data == nil || !got.Data.Name.Equal(want.Data.Name) ||
					!bytes.Equal(got.Data.Payload, want.Data.Payload) {
					return false
				}
			}
		}
		_, err := r.Next()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
