package ndn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stream framing: NDN TLV packets are self-delimiting (outer type +
// length), so a byte stream of concatenated packets needs no extra
// framing. PacketReader incrementally parses packets off a reader;
// PacketWriter emits them one at a time, and AppendInterest/AppendData
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
func DecodePacket(wire []byte) (Packet, error) { return decodePacket(wire, false) }

// decodePacket is DecodePacket; owned is decodeData's and
// decodeInterest's.
func decodePacket(wire []byte, owned bool) (Packet, error) {
	typ, _, _, err := readTLV(wire)
	if err != nil {
		return Packet{}, err
	}
	switch typ {
	case tlvInterest:
		i, err := decodeInterest(wire, owned)
		if err != nil {
			return Packet{}, err
		}
		return Packet{Interest: i}, nil
	case tlvData:
		d, err := decodeData(wire, owned)
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

// PacketReader incrementally reads TLV packets from a stream.
type PacketReader struct {
	r *bufio.Reader
	// header is the raw outer Type and Length of the packet being read,
	// two var-numbers of at most nine bytes each. It lives here so that
	// framing a packet allocates nothing but the packet's own buffer.
	header [18]byte
}

// NewPacketReader wraps r.
func NewPacketReader(r io.Reader) *PacketReader {
	return &PacketReader{r: bufio.NewReader(r)}
}

// Next reads one packet. It returns io.EOF cleanly at end of stream and
// io.ErrUnexpectedEOF when the stream ends mid-packet.
//
// Every packet gets a buffer of its own, which the reader never touches
// again, so a packet's name bytes and a Data's Payload and Signature are
// slices of it rather than second copies: the packet is read into memory
// once.
func (pr *PacketReader) Next() (Packet, error) {
	typ, typLen, err := pr.readVarNum(0, false)
	if err != nil {
		return Packet{}, err
	}
	length, lengthLen, err := pr.readVarNum(typLen, true)
	if err != nil {
		return Packet{}, err
	}
	if typ != tlvInterest && typ != tlvData {
		return Packet{}, fmt.Errorf("%w: outer type %#x on stream", ErrBadTLV, typ)
	}
	if length > MaxPacketSize {
		return Packet{}, fmt.Errorf("%w: declared %d bytes", ErrPacketTooLarge, length)
	}
	header := pr.header[:typLen+lengthLen]
	wire := make([]byte, len(header)+int(length))
	copy(wire, header)
	if _, err := io.ReadFull(pr.r, wire[len(header):]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.ErrUnexpectedEOF
		}
		return Packet{}, err
	}
	return decodePacket(wire, true)
}

// readVarNum reads one NDN variable-size number into pr.header[at:],
// returning its value and encoded width. midPacket upgrades clean EOF to
// ErrUnexpectedEOF.
func (pr *PacketReader) readVarNum(at int, midPacket bool) (uint64, int, error) {
	first, err := pr.r.ReadByte()
	if err != nil {
		if midPacket && errors.Is(err, io.EOF) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	pr.header[at] = first
	var need int
	switch {
	case first < 253:
		return uint64(first), 1, nil
	case first == 0xFD:
		need = 2
	case first == 0xFE:
		need = 4
	default:
		need = 8
	}
	buf := pr.header[at+1 : at+1+need]
	if _, err := io.ReadFull(pr.r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	switch need {
	case 2:
		return uint64(binary.BigEndian.Uint16(buf)), 1 + need, nil
	case 4:
		return uint64(binary.BigEndian.Uint32(buf)), 1 + need, nil
	default:
		return binary.BigEndian.Uint64(buf), 1 + need, nil
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
