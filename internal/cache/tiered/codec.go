// On-disk record codec for the file-backed second tier.
//
// A log record is framed as
//
//	[4B little-endian payload length][4B CRC32-IEEE of payload][payload]
//
// and the payload is
//
//	flags(1B) | varint fields | GroupKey | Data wire   (entry record)
//	flags(1B) | key                                    (tombstone record)
//
// with all integers as unsigned varints and byte strings as
// varint-length-prefixed bytes. The content object itself rides as its
// canonical TLV wire encoding (ndn.EncodeData), so the log stores
// exactly what the network would carry; entry metadata that the TLV
// layer does not persist (insertion time, Algorithm 1 counters) wraps
// around it. The file tier stores the insertion time on the wall clock
// (see FileTier), so it means the same to the process that reopens the
// log. The CRC plus length frame is what makes reopen
// crash-tolerant: a torn tail fails the length or checksum test and the
// log is truncated back to the last intact record.
package tiered

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

// Record flag bits.
const (
	flagTombstone         = 1 << 0
	flagPrivate           = 1 << 1
	flagNonPrivateTrigger = 1 << 2
	flagThresholdSet      = 1 << 3
	flagKnownMask         = flagTombstone | flagPrivate | flagNonPrivateTrigger | flagThresholdSet
)

// frameHeaderSize is the per-record framing overhead.
const frameHeaderSize = 8

// maxRecordPayload bounds a single record so a corrupt length field
// cannot drive a multi-gigabyte allocation on reopen.
const maxRecordPayload = 64 << 20

var errCorruptRecord = errors.New("tiered: corrupt log record")

// encodeEntryPayload serializes an entry record payload.
func encodeEntryPayload(e *cache.Entry) []byte {
	var flags byte
	if e.Private {
		flags |= flagPrivate
	}
	if e.NonPrivateTrigger {
		flags |= flagNonPrivateTrigger
	}
	if e.ThresholdSet {
		flags |= flagThresholdSet
	}
	wire := ndn.EncodeData(e.Data)
	buf := make([]byte, 0, 64+len(e.GroupKey)+len(wire))
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(e.InsertedAt))
	buf = binary.AppendUvarint(buf, uint64(e.FetchDelay))
	buf = binary.AppendUvarint(buf, e.ForwardCount)
	buf = binary.AppendUvarint(buf, e.Counter)
	buf = binary.AppendUvarint(buf, e.Threshold)
	buf = appendBytes(buf, []byte(e.GroupKey))
	buf = appendBytes(buf, wire)
	return buf
}

// encodeTombstonePayload serializes a deletion marker for the name whose
// URI is key.
func encodeTombstonePayload(key string) []byte {
	buf := make([]byte, 0, 2+len(key))
	buf = append(buf, flagTombstone)
	buf = appendBytes(buf, []byte(key))
	return buf
}

// decodePayload parses a record payload. Exactly one of entry and
// tombstoneKey is meaningful: tombstone records return the deleted key,
// entry records the reconstructed entry. Any malformed input returns
// errCorruptRecord (wrapped) and never panics — this is the fuzz
// surface.
func decodePayload(payload []byte) (entry *cache.Entry, tombstoneKey string, err error) {
	if len(payload) == 0 {
		return nil, "", fmt.Errorf("%w: empty payload", errCorruptRecord)
	}
	flags := payload[0]
	rest := payload[1:]
	if flags&^byte(flagKnownMask) != 0 {
		return nil, "", fmt.Errorf("%w: unknown flag bits %#x", errCorruptRecord, flags)
	}
	if flags&flagTombstone != 0 {
		key, rest, err := takeBytes(rest)
		if err != nil {
			return nil, "", err
		}
		if len(rest) != 0 {
			return nil, "", fmt.Errorf("%w: %d trailing bytes after tombstone", errCorruptRecord, len(rest))
		}
		return nil, string(key), nil
	}
	e := &cache.Entry{
		Private:           flags&flagPrivate != 0,
		NonPrivateTrigger: flags&flagNonPrivateTrigger != 0,
		ThresholdSet:      flags&flagThresholdSet != 0,
	}
	var v uint64
	if v, rest, err = takeUvarint(rest); err != nil {
		return nil, "", err
	}
	e.InsertedAt = time.Duration(v)
	if v, rest, err = takeUvarint(rest); err != nil {
		return nil, "", err
	}
	e.FetchDelay = time.Duration(v)
	if e.ForwardCount, rest, err = takeUvarint(rest); err != nil {
		return nil, "", err
	}
	if e.Counter, rest, err = takeUvarint(rest); err != nil {
		return nil, "", err
	}
	if e.Threshold, rest, err = takeUvarint(rest); err != nil {
		return nil, "", err
	}
	group, rest, err := takeBytes(rest)
	if err != nil {
		return nil, "", err
	}
	e.GroupKey = string(group)
	wire, rest, err := takeBytes(rest)
	if err != nil {
		return nil, "", err
	}
	if len(rest) != 0 {
		return nil, "", fmt.Errorf("%w: %d trailing bytes after entry", errCorruptRecord, len(rest))
	}
	data, err := ndn.DecodeData(wire)
	if err != nil {
		return nil, "", fmt.Errorf("%w: data wire: %v", errCorruptRecord, err)
	}
	e.Data = data
	return e, "", nil
}

// frameRecord wraps a payload in the length+CRC frame.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// parseFrame validates the frame starting at buf and returns its
// payload and total frame size. Returns errCorruptRecord when the
// frame is torn (short) or fails its checksum.
func parseFrame(buf []byte) (payload []byte, frameLen int, err error) {
	if len(buf) < frameHeaderSize {
		return nil, 0, fmt.Errorf("%w: torn frame header (%d bytes)", errCorruptRecord, len(buf))
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxRecordPayload {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds limit", errCorruptRecord, n)
	}
	end := frameHeaderSize + int(n)
	if len(buf) < end {
		return nil, 0, fmt.Errorf("%w: torn payload (%d of %d bytes)", errCorruptRecord, len(buf)-frameHeaderSize, n)
	}
	payload = buf[frameHeaderSize:end]
	if binary.LittleEndian.Uint32(buf[4:8]) != crc32.ChecksumIEEE(payload) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", errCorruptRecord)
	}
	return payload, end, nil
}

// appendBytes appends a varint-length-prefixed byte string.
func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// takeUvarint consumes one varint from b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", errCorruptRecord)
	}
	return v, b[n:], nil
}

// takeBytes consumes one length-prefixed byte string from b.
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: byte string length %d exceeds remaining %d", errCorruptRecord, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}
