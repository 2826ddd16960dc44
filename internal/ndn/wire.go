package ndn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// TLV wire codec. The encoding follows the NDN packet format conventions:
// every element is a (Type, Length, Value) triple whose Type and Length
// use the NDN variable-size number encoding (1, 3, 5 or 9 bytes).
//
// The simulator exchanges decoded packets in memory for speed, but the
// codec is exercised on every producer→consumer path in the examples and
// integration tests so that packet sizes — and hence transmission delays —
// reflect real serialized lengths.

// TLV type assignments (loosely follows NDN's, with private-use types for
// the paper-specific privacy fields).
const (
	tlvInterest         uint64 = 0x05
	tlvData             uint64 = 0x06
	tlvName             uint64 = 0x07
	tlvComponent        uint64 = 0x08
	tlvNonce            uint64 = 0x0A
	tlvScope            uint64 = 0x0B
	tlvInterestLifetime uint64 = 0x0C
	tlvFreshness        uint64 = 0x19
	tlvPayload          uint64 = 0x15
	tlvProducer         uint64 = 0x1C
	tlvSignature        uint64 = 0x17
	tlvPrivacyMark      uint64 = 0xFD01 // private-use: Interest.Privacy / Data.Private
	tlvContentID        uint64 = 0xFD02 // private-use: Data.ContentID (Section VI extension)
)

var (
	// ErrTruncated is returned when the wire buffer ends inside an element.
	ErrTruncated = errors.New("ndn: truncated TLV")
	// ErrBadTLV is returned for structurally invalid encodings.
	ErrBadTLV = errors.New("ndn: malformed TLV")
)

// appendVarNum appends an NDN variable-size number.
func appendVarNum(b []byte, v uint64) []byte {
	switch {
	case v < 253:
		return append(b, byte(v))
	case v <= 0xFFFF:
		b = append(b, 0xFD)
		return binary.BigEndian.AppendUint16(b, uint16(v))
	case v <= 0xFFFFFFFF:
		b = append(b, 0xFE)
		return binary.BigEndian.AppendUint32(b, uint32(v))
	default:
		b = append(b, 0xFF)
		return binary.BigEndian.AppendUint64(b, v)
	}
}

// readVarNum decodes a variable-size number, returning the value and the
// number of bytes consumed.
func readVarNum(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	switch first := b[0]; {
	case first < 253:
		return uint64(first), 1, nil
	case first == 0xFD:
		if len(b) < 3 {
			return 0, 0, ErrTruncated
		}
		return uint64(binary.BigEndian.Uint16(b[1:3])), 3, nil
	case first == 0xFE:
		if len(b) < 5 {
			return 0, 0, ErrTruncated
		}
		return uint64(binary.BigEndian.Uint32(b[1:5])), 5, nil
	default:
		if len(b) < 9 {
			return 0, 0, ErrTruncated
		}
		return binary.BigEndian.Uint64(b[1:9]), 9, nil
	}
}

// appendTLVHeader appends the Type and Length of an element whose value
// is n bytes; the caller appends the value.
func appendTLVHeader(b []byte, typ uint64, n int) []byte {
	return appendVarNum(appendVarNum(b, typ), uint64(n))
}

// appendTLV appends one element. The value may be a string as it is,
// without a conversion's copy.
func appendTLV[V ~[]byte | ~string](b []byte, typ uint64, value V) []byte {
	return append(appendTLVHeader(b, typ, len(value)), value...)
}

// readTLV decodes one TLV element, returning its type, value and total
// bytes consumed.
func readTLV(b []byte) (typ uint64, value []byte, n int, err error) {
	typ, tn, err := readVarNum(b)
	if err != nil {
		return 0, nil, 0, err
	}
	length, ln, err := readVarNum(b[tn:])
	if err != nil {
		return 0, nil, 0, err
	}
	start := tn + ln
	if uint64(len(b)-start) < length {
		return 0, nil, 0, ErrTruncated
	}
	end := start + int(length)
	return typ, b[start:end], end, nil
}

// EncodeName appends the Name TLV encoding of n to b: the header and the
// value n already holds.
func EncodeName(b []byte, n Name) []byte {
	b = slices.Grow(b, nameTLVSize(n))
	return appendTLV(b, tlvName, n.value)
}

func appendUintTLV(b []byte, typ, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	// Trim leading zero bytes but keep at least one byte.
	i := 0
	for i < 7 && buf[i] == 0 {
		i++
	}
	return appendTLV(b, typ, buf[i:])
}

func decodeUint(value []byte) (uint64, error) {
	if len(value) == 0 || len(value) > 8 {
		return 0, fmt.Errorf("%w: integer value of length %d", ErrBadTLV, len(value))
	}
	var v uint64
	for _, by := range value {
		v = v<<8 | uint64(by)
	}
	return v, nil
}

// The encoders write a packet in one pass into one buffer: the arithmetic
// sizes below give every Length field before its value is written, so
// nothing is assembled in an inner buffer and copied outwards. Each
// encoder and its size function list the same fields in the same order —
// FuzzWireSize and TestWireSizeMatchesEncoding hold them together — and
// the bytes are what stored records (tiered.FileTier) and signatures
// were made over, so they do not change.

// EncodeInterest serializes an interest into a buffer of exactly its size.
func EncodeInterest(i *Interest) []byte {
	return AppendInterest(make([]byte, 0, InterestWireSize(i)), i)
}

// AppendInterest appends the encoding of i to b — what EncodeInterest
// returns — growing b at most once. A stream writer appends every packet
// it sends into one buffer this way.
func AppendInterest(b []byte, i *Interest) []byte {
	inner := interestValueSize(i)
	b = slices.Grow(b, tlvSize(tlvInterest, inner))
	b = appendTLVHeader(b, tlvInterest, inner)
	b = EncodeName(b, i.Name)
	b = appendUintTLV(b, tlvNonce, i.Nonce)
	if i.Scope != ScopeUnlimited {
		b = appendUintTLV(b, tlvScope, uint64(i.Scope))
	}
	if i.Lifetime > 0 {
		b = appendUintTLV(b, tlvInterestLifetime, uint64(i.Lifetime/time.Millisecond))
	}
	if i.Privacy != PrivacyUnmarked {
		b = appendUintTLV(b, tlvPrivacyMark, uint64(i.Privacy))
	}
	return b
}

// DecodeInterest parses a serialized interest. The result owns its
// bytes: wire may be reused once it returns.
func DecodeInterest(wire []byte) (*Interest, error) { return decodeInterest(wire, false) }

// decodeInterest parses an interest; owned is decodeData's.
func decodeInterest(wire []byte, owned bool) (*Interest, error) {
	typ, value, n, err := readTLV(wire)
	if err != nil {
		return nil, err
	}
	if typ != tlvInterest {
		return nil, fmt.Errorf("%w: outer type %#x, want Interest", ErrBadTLV, typ)
	}
	if n != len(wire) {
		return nil, fmt.Errorf("%w: %d trailing bytes after Interest", ErrBadTLV, len(wire)-n)
	}
	out := &Interest{}
	sawName := false
	for len(value) > 0 {
		ityp, v, consumed, err := readTLV(value)
		if err != nil {
			return nil, err
		}
		switch ityp {
		case tlvName:
			out.Name, err = decodeName(v, owned)
			sawName = true
		case tlvNonce:
			out.Nonce, err = decodeUint(v)
		case tlvScope:
			var s uint64
			s, err = decodeUint(v)
			if err == nil && s > 255 {
				err = fmt.Errorf("%w: scope %d out of range", ErrBadTLV, s)
			}
			out.Scope = uint8(s)
		case tlvInterestLifetime:
			var ms uint64
			ms, err = decodeUint(v)
			out.Lifetime = time.Duration(ms) * time.Millisecond
		case tlvPrivacyMark:
			var p uint64
			p, err = decodeUint(v)
			if err == nil && p > uint64(PrivacyDeclined) {
				err = fmt.Errorf("%w: privacy mark %d out of range", ErrBadTLV, p)
			}
			out.Privacy = Privacy(p)
		default:
			// Unknown element: skip, for forward compatibility.
		}
		if err != nil {
			return nil, err
		}
		value = value[consumed:]
	}
	if !sawName {
		return nil, fmt.Errorf("%w: Interest without a Name", ErrBadTLV)
	}
	return out, nil
}

// EncodeData serializes a Data packet into a buffer of exactly its size.
func EncodeData(d *Data) []byte {
	return AppendData(make([]byte, 0, DataWireSize(d)), d)
}

// AppendData appends the encoding of d to b — what EncodeData returns —
// growing b at most once.
func AppendData(b []byte, d *Data) []byte {
	inner := dataValueSize(d)
	b = slices.Grow(b, tlvSize(tlvData, inner))
	b = appendTLVHeader(b, tlvData, inner)
	b = EncodeName(b, d.Name)
	b = appendTLV(b, tlvPayload, d.Payload)
	if d.Producer != "" {
		b = appendTLV(b, tlvProducer, d.Producer)
	}
	if len(d.Signature) > 0 {
		b = appendTLV(b, tlvSignature, d.Signature)
	}
	if d.Freshness > 0 {
		b = appendUintTLV(b, tlvFreshness, uint64(d.Freshness/time.Millisecond))
	}
	if d.Private {
		b = appendUintTLV(b, tlvPrivacyMark, 1)
	}
	if d.ContentID != "" {
		b = appendTLV(b, tlvContentID, d.ContentID)
	}
	return b
}

// DecodeData parses a serialized Data packet. The result owns its bytes:
// wire may be reused once it returns.
func DecodeData(wire []byte) (*Data, error) { return decodeData(wire, false) }

// decodeData parses a Data packet. With owned set the caller hands wire
// over — it never reuses or writes the buffer again — so the name's
// bytes, Payload and Signature are sliced from it (capped, so an append
// cannot reach the bytes after them) instead of copied out.
func decodeData(wire []byte, owned bool) (*Data, error) {
	typ, value, n, err := readTLV(wire)
	if err != nil {
		return nil, err
	}
	if typ != tlvData {
		return nil, fmt.Errorf("%w: outer type %#x, want Data", ErrBadTLV, typ)
	}
	if n != len(wire) {
		return nil, fmt.Errorf("%w: %d trailing bytes after Data", ErrBadTLV, len(wire)-n)
	}
	out := &Data{}
	sawName, sawPayload := false, false
	for len(value) > 0 {
		ityp, v, consumed, err := readTLV(value)
		if err != nil {
			return nil, err
		}
		switch ityp {
		case tlvName:
			out.Name, err = decodeName(v, owned)
			sawName = true
		case tlvPayload:
			out.Payload = ownBytes(v, owned)
			sawPayload = true
		case tlvProducer:
			out.Producer = string(v)
		case tlvSignature:
			out.Signature = ownBytes(v, owned)
		case tlvFreshness:
			var ms uint64
			ms, err = decodeUint(v)
			out.Freshness = time.Duration(ms) * time.Millisecond
		case tlvPrivacyMark:
			var p uint64
			p, err = decodeUint(v)
			out.Private = p != 0
		case tlvContentID:
			out.ContentID = string(v)
		default:
			// Unknown element: skip.
		}
		if err != nil {
			return nil, err
		}
		value = value[consumed:]
	}
	if !sawName {
		return nil, fmt.Errorf("%w: Data without a Name", ErrBadTLV)
	}
	if !sawPayload {
		return nil, fmt.Errorf("%w: Data without a Payload", ErrBadTLV)
	}
	return out, nil
}

// ownBytes is v itself when the decoder owns the buffer, else a copy;
// empty is nil either way.
func ownBytes(v []byte, owned bool) []byte {
	if !owned || len(v) == 0 {
		return append([]byte(nil), v...)
	}
	return v[:len(v):len(v)]
}

// Arithmetic wire sizes. The simulator prices every transmission by the
// packet's serialized length; these compute that length from field
// lengths and var-number widths alone, so sizing a packet never builds
// (or copies a payload into) a buffer. Each mirrors its encoder
// field for field — FuzzWireSize holds them equal to len(Encode…).

// varNumSize is the encoded width of an NDN variable-size number.
func varNumSize(v uint64) int {
	switch {
	case v < 253:
		return 1
	case v <= 0xFFFF:
		return 3
	case v <= 0xFFFFFFFF:
		return 5
	default:
		return 9
	}
}

// tlvSize is the encoded length of a TLV element holding n value bytes.
func tlvSize(typ uint64, n int) int {
	return varNumSize(typ) + varNumSize(uint64(n)) + n
}

// uintTLVSize is the encoded length of appendUintTLV(typ, v): the value
// is v's big-endian bytes with leading zeros trimmed, at least one.
func uintTLVSize(typ, v uint64) int {
	return tlvSize(typ, max(1, (bits.Len64(v)+7)/8))
}

// nameTLVSize is the encoded length of EncodeName(n).
func nameTLVSize(n Name) int { return tlvSize(tlvName, len(n.value)) }

// InterestWireSize returns len(EncodeInterest(i)) without encoding.
func InterestWireSize(i *Interest) int { return tlvSize(tlvInterest, interestValueSize(i)) }

// interestValueSize is the length of the Interest element's value.
func interestValueSize(i *Interest) int {
	inner := nameTLVSize(i.Name) + uintTLVSize(tlvNonce, i.Nonce)
	if i.Scope != ScopeUnlimited {
		inner += uintTLVSize(tlvScope, uint64(i.Scope))
	}
	if i.Lifetime > 0 {
		inner += uintTLVSize(tlvInterestLifetime, uint64(i.Lifetime/time.Millisecond))
	}
	if i.Privacy != PrivacyUnmarked {
		inner += uintTLVSize(tlvPrivacyMark, uint64(i.Privacy))
	}
	return inner
}

// DataWireSize returns len(EncodeData(d)) without encoding.
func DataWireSize(d *Data) int { return tlvSize(tlvData, dataValueSize(d)) }

// dataValueSize is the length of the Data element's value.
func dataValueSize(d *Data) int {
	inner := nameTLVSize(d.Name) + tlvSize(tlvPayload, len(d.Payload))
	if d.Producer != "" {
		inner += tlvSize(tlvProducer, len(d.Producer))
	}
	if len(d.Signature) > 0 {
		inner += tlvSize(tlvSignature, len(d.Signature))
	}
	if d.Freshness > 0 {
		inner += uintTLVSize(tlvFreshness, uint64(d.Freshness/time.Millisecond))
	}
	if d.Private {
		inner += uintTLVSize(tlvPrivacyMark, 1)
	}
	if d.ContentID != "" {
		inner += tlvSize(tlvContentID, len(d.ContentID))
	}
	return inner
}

// WireSize returns the serialized length of a Data packet without
// materializing the buffer; the simulator uses it to compute transmission
// delays. It is DataWireSize under its original name.
func WireSize(d *Data) int { return DataWireSize(d) }
