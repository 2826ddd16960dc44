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
// framing. ReadPacket incrementally parses one packet off a reader;
// WritePacket emits one. This is what real NDN faces (TCP/Unix sockets)
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

// DecodePacket dispatches on the outer TLV type.
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
	switch {
	case p.Interest != nil && p.Data != nil:
		return nil, errors.New("ndn: packet has both interest and data")
	case p.Interest != nil:
		return EncodeInterest(p.Interest), nil
	case p.Data != nil:
		return EncodeData(p.Data), nil
	default:
		return nil, errors.New("ndn: empty packet")
	}
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
	return DecodePacket(wire)
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
}

// NewPacketWriter wraps w.
func NewPacketWriter(w io.Writer) *PacketWriter {
	return &PacketWriter{w: w}
}

// Write emits one packet.
func (pw *PacketWriter) Write(p Packet) error {
	wire, err := EncodePacket(p)
	if err != nil {
		return err
	}
	if len(wire) > MaxPacketSize {
		return fmt.Errorf("%w: %d bytes", ErrPacketTooLarge, len(wire))
	}
	_, err = pw.w.Write(wire)
	return err
}
