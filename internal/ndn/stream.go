package ndn

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Stream framing: NDN TLV packets are self-delimiting (outer type +
// length), so a byte stream of concatenated packets needs no extra
// framing. A Framer cuts packets out of whatever chunks of the stream it
// is fed, without doing I/O; PacketReader feeds one from an io.Reader;
// PacketWriter emits packets one at a time, and AppendInterest/AppendData
// many into one buffer. This is what real NDN faces (TCP/Unix sockets)
// speak, and what internal/netface uses to run the forwarder over real
// connections.

// MaxPacketSize bounds a single packet on a stream, protecting readers
// from hostile length fields.
const MaxPacketSize = 1 << 20 // 1 MiB

// ErrPacketTooLarge is returned when a stream declares an oversized
// packet.
var ErrPacketTooLarge = errors.New("ndn: packet exceeds MaxPacketSize")

// Packet is a decoded NDN packet: exactly one of Interest or Data is
// non-nil.
type Packet struct {
	Interest *Interest
	Data     *Data
}

// DecodePacket dispatches on the outer TLV type. Like DecodeData, the
// packet owns its bytes.
func DecodePacket(wire []byte) (Packet, error) {
	typ, _, _, err := readTLV(wire)
	if err != nil {
		return Packet{}, err
	}
	switch typ {
	case tlvInterest:
		i, err := DecodeInterest(wire)
		if err != nil {
			return Packet{}, err
		}
		return Packet{Interest: i}, nil
	case tlvData:
		d, err := DecodeData(wire)
		if err != nil {
			return Packet{}, err
		}
		return Packet{Data: d}, nil
	default:
		return Packet{}, fmt.Errorf("%w: unknown outer type %#x", ErrBadTLV, typ)
	}
}

// EncodePacket serializes whichever half is set.
func EncodePacket(p Packet) ([]byte, error) {
	size, err := p.wireSize()
	if err != nil {
		return nil, err
	}
	return p.appendTo(make([]byte, 0, size)), nil
}

// wireSize checks that exactly one half is set and returns its encoded
// length.
func (p Packet) wireSize() (int, error) {
	switch {
	case p.Interest != nil && p.Data != nil:
		return 0, errors.New("ndn: packet has both interest and data")
	case p.Interest != nil:
		return InterestWireSize(p.Interest), nil
	case p.Data != nil:
		return DataWireSize(p.Data), nil
	default:
		return 0, errors.New("ndn: empty packet")
	}
}

// appendTo appends the encoding of a packet wireSize accepted.
func (p Packet) appendTo(b []byte) []byte {
	if p.Interest != nil {
		return AppendInterest(b, p.Interest)
	}
	return AppendData(b, p.Data)
}

// Framer cuts a TLV packet stream into packets as the stream arrives in
// chunks, and decodes each one borrowed: the packet Next returns — its
// structs, its name's bytes and a Data's Payload and Signature — is the
// framer's and the chunk's, valid until the next call to Next. Whatever
// keeps any of it longer keeps a copy (Data.Clone, Name.Clone).
// Framing and decoding allocate nothing but a Data's Producer and
// ContentID strings, when it has them, and the carry buffer below while
// it grows to the largest packet split across chunks.
//
// A packet that straddles two chunks is carried over: when a chunk runs
// out mid-packet, Next copies its tail into a buffer the framer keeps,
// so the chunk is free to reuse as soon as Next reports it spent, and
// completes the packet from the next chunk fed. The zero value is ready
// to use. A Framer is not safe for concurrent use.
type Framer struct {
	// in is what is left of the chunk being framed.
	in []byte
	// carry holds the start of a packet the previous chunks ended in.
	carry []byte
	// err is the stream's framing error: once set, Next returns it.
	err error
	// interest and data are the structs borrowed packets are decoded
	// into.
	interest Interest
	data     Data
}

// Feed hands the framer the stream's next chunk. The previous chunk must
// be spent: Next has reported that it holds no whole packet more.
func (fr *Framer) Feed(chunk []byte) { fr.in = chunk }

// carried reports how many bytes of an incomplete packet the framer
// holds from chunks already spent: a stream that ends here ends
// mid-packet.
func (fr *Framer) carried() int { return len(fr.carry) }

// Next returns the next whole packet, decoded borrowed (see Framer).
// ok is false when the chunk holds no whole packet more: its tail, if
// any, has been carried over and the chunk is spent. A malformed,
// oversized or unknown outer TLV ends the stream: Next returns the error
// from then on.
func (fr *Framer) Next() (p Packet, ok bool, err error) {
	if fr.err != nil {
		return Packet{}, false, fr.err
	}
	var wire []byte
	if len(fr.carry) > 0 {
		wire = fr.complete()
	} else {
		var size int
		if size, fr.err = frameSize(fr.in); size > 0 && size <= len(fr.in) {
			wire, fr.in = fr.in[:size], fr.in[size:]
		} else if fr.err == nil {
			fr.carry = append(fr.carry, fr.in...)
			fr.in = nil
		}
	}
	if wire == nil {
		return Packet{}, false, fr.err
	}
	if typ, _, _ := readVarNum(wire); typ == tlvInterest {
		fr.err = decodeInterest(&fr.interest, wire, true)
		p.Interest = &fr.interest
	} else {
		fr.err = decodeData(&fr.data, wire, true)
		p.Data = &fr.data
	}
	if fr.err != nil {
		return Packet{}, false, fr.err
	}
	return p, true, nil
}

// complete moves bytes from the chunk onto the carried packet start and
// returns the packet once it is whole; nil when the chunk ran out first
// or the header is bad (fr.err). The carry buffer is left empty but
// unwritten, so the packet decoded from it stays valid until the next
// call.
func (fr *Framer) complete() []byte {
	size := 0
	for size == 0 {
		// The header is at most 18 bytes: take them one at a time until
		// it parses.
		if size, fr.err = frameSize(fr.carry); fr.err != nil {
			return nil
		}
		if size == 0 {
			if len(fr.in) == 0 {
				return nil
			}
			fr.carry, fr.in = append(fr.carry, fr.in[0]), fr.in[1:]
		}
	}
	take := min(size-len(fr.carry), len(fr.in))
	fr.carry = append(slices.Grow(fr.carry, size-len(fr.carry)), fr.in[:take]...)
	fr.in = fr.in[take:]
	if len(fr.carry) < size {
		return nil
	}
	wire := fr.carry
	fr.carry = fr.carry[:0]
	return wire
}

// frameSize reads the outer Type and Length at the front of b and
// returns the whole packet's size, or 0 when b ends inside the header.
// It rejects an outer type other than Interest or Data and a declared
// length over MaxPacketSize, before any of the value arrives.
func frameSize(b []byte) (int, error) {
	typ, tn, err := readVarNum(b)
	if err != nil {
		return 0, nil
	}
	if typ != tlvInterest && typ != tlvData {
		return 0, fmt.Errorf("%w: outer type %#x on stream", ErrBadTLV, typ)
	}
	length, ln, err := readVarNum(b[tn:])
	if err != nil {
		return 0, nil
	}
	if length > MaxPacketSize {
		return 0, fmt.Errorf("%w: declared %d bytes", ErrPacketTooLarge, length)
	}
	return tn + ln + int(length), nil
}

// readChunk is how much PacketReader asks its io.Reader for at a time.
const readChunk = 32 << 10

// PacketReader reads TLV packets from a stream: a Framer fed by reads
// into one buffer it reuses.
type PacketReader struct {
	r   io.Reader
	buf []byte
	fr  Framer
	// err is the read error that ends the stream once the framer has
	// returned every whole packet read before it.
	err error
}

// NewPacketReader wraps r.
func NewPacketReader(r io.Reader) *PacketReader {
	return &PacketReader{r: r, buf: make([]byte, readChunk)}
}

// Next reads one packet. It returns io.EOF cleanly at end of stream and
// io.ErrUnexpectedEOF when the stream ends mid-packet.
//
// The packet is borrowed, as a Framer's: it is valid until the next call
// to Next, which may read over its bytes. Once the reader exists, Next
// allocates nothing but a Data's Producer and ContentID strings.
func (pr *PacketReader) Next() (Packet, error) {
	for {
		p, ok, err := pr.fr.Next()
		if ok || err != nil {
			return p, err
		}
		if pr.err != nil {
			if errors.Is(pr.err, io.EOF) && pr.fr.carried() > 0 {
				return Packet{}, io.ErrUnexpectedEOF
			}
			return Packet{}, pr.err
		}
		var n int
		n, pr.err = pr.r.Read(pr.buf)
		pr.fr.Feed(pr.buf[:n])
	}
}

// PacketWriter emits TLV packets onto a stream. It is not safe for
// concurrent use; callers serialize writes.
type PacketWriter struct {
	w io.Writer
	// scratch is the buffer every packet is encoded into. io.Writer may
	// not retain what it is given, so one buffer, grown to the largest
	// packet written, serves every Write.
	scratch []byte
}

// NewPacketWriter wraps w.
func NewPacketWriter(w io.Writer) *PacketWriter {
	return &PacketWriter{w: w}
}

// Write emits one packet.
func (pw *PacketWriter) Write(p Packet) error {
	size, err := p.wireSize()
	if err != nil {
		return err
	}
	if size > MaxPacketSize {
		return fmt.Errorf("%w: %d bytes", ErrPacketTooLarge, size)
	}
	pw.scratch = p.appendTo(pw.scratch[:0])
	_, err = pw.w.Write(pw.scratch)
	return err
}
