package tiered

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

// FileTierConfig parameterizes the file-backed second tier.
type FileTierConfig struct {
	// Path is the log file location. Its directory must exist.
	Path string
	// Capacity bounds the number of live objects; 0 means unlimited.
	// At capacity the oldest-written live object is evicted.
	Capacity int
}

// fileSlot locates a live record inside the log.
type fileSlot struct {
	off int64
	len int // full frame length, header included
	seq uint64
	// shift takes the record's wall-clock insertion time to this
	// process's executor clock (see Put and replay).
	shift time.Duration
}

// FileTier is cmd/ndnd's second tier: a crash-tolerant append-only log
// with an in-memory index by name. Every Put appends a framed record (deletes
// append tombstones), so the file is only ever written at its end and a
// crash can corrupt at most the final record; Open replays the log,
// rebuilds the index, and truncates any torn tail. Peek reports zero
// modeled cost — against a real store the read latency is physically
// observable, not simulated.
//
// The log is not compacted: ndnd caches are rebuilt from traffic on
// restart anyway, so the simple recovery story (replay + truncate)
// wins over space reuse.
//
// Each process's executor clock starts at zero, so the log keeps
// insertion times on the wall clock: an object a later process reopens
// is as old as it was when written plus the daemon's downtime.
type FileTier struct {
	cfg     FileTierConfig
	f       *os.File
	size    int64
	index   ndn.NameMap[fileSlot]
	queue   []fifoSlot
	nextSeq uint64
}

var _ cache.SecondTier = (*FileTier)(nil)

// OpenFileTier opens (or creates) the log at cfg.Path, replays it to
// rebuild the live-object index, and truncates any torn tail left by a
// crash. Returns the tier ready for service.
func OpenFileTier(cfg FileTierConfig) (*FileTier, error) {
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("tiered: negative file-tier capacity %d", cfg.Capacity)
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tiered: opening log: %w", err)
	}
	t := &FileTier{cfg: cfg, f: f}
	if err := t.replay(wallClock()); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// replay scans the log from the start, indexing the last record per
// name (later records shadow earlier ones; tombstones, which hold the
// name's URI, delete), then
// truncates at the first torn or corrupt frame. Reopened insertion
// times are taken relative to opened, the wall-clock time of the open:
// this process's executor started about then.
func (t *FileTier) replay(opened time.Duration) error {
	raw, err := io.ReadAll(t.f)
	if err != nil {
		return fmt.Errorf("tiered: reading log: %w", err)
	}
	valid := int64(0)
	off := 0
	for off < len(raw) {
		payload, frameLen, err := parseFrame(raw[off:])
		if err != nil {
			break // torn tail: keep everything before it
		}
		entry, tombstoneKey, err := decodePayload(payload)
		if err != nil {
			break // corrupt payload that passed CRC — treat as tail damage
		}
		if entry != nil {
			name := entry.Data.Name
			t.nextSeq++
			t.index.Put(name, fileSlot{off: int64(off), len: frameLen, seq: t.nextSeq, shift: -opened})
			t.queue = append(t.queue, fifoSlot{name: name, seq: t.nextSeq})
		} else if name, err := ndn.ParseName(tombstoneKey); err == nil {
			t.index.Delete(name)
		}
		off += frameLen
		valid = int64(off)
	}
	if valid < int64(len(raw)) {
		if err := t.f.Truncate(valid); err != nil {
			return fmt.Errorf("tiered: truncating torn tail: %w", err)
		}
	}
	if _, err := t.f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("tiered: seeking log end: %w", err)
	}
	t.size = valid
	return nil
}

// Name implements cache.SecondTier.
func (t *FileTier) Name() string { return "file" }

// Len implements cache.SecondTier.
func (t *FileTier) Len() int { return t.index.Len() }

// Capacity implements cache.SecondTier.
func (t *FileTier) Capacity() int { return t.cfg.Capacity }

// Size returns the log's current byte length (tombstones and shadowed
// records included).
func (t *FileTier) Size() int64 { return t.size }

// Path returns the log file location.
func (t *FileTier) Path() string { return filepath.Clean(t.cfg.Path) }

// Close implements cache.SecondTier.
func (t *FileTier) Close() error { return t.f.Close() }

// appendFrame writes one framed payload at the log's end.
func (t *FileTier) appendFrame(payload []byte) (off int64, frameLen int, err error) {
	frame := frameRecord(payload)
	off = t.size
	if _, err := t.f.Write(frame); err != nil {
		return 0, 0, fmt.Errorf("tiered: appending record: %w", err)
	}
	t.size += int64(len(frame))
	return off, len(frame), nil
}

// Put implements cache.SecondTier. The entry is serialized as-at-put,
// its insertion time moved onto the wall clock; the store mutates an
// entry only while it is in the RAM front, so nothing is lost.
func (t *FileTier) Put(e *cache.Entry, now time.Duration) ([]*cache.Entry, error) {
	name := e.Data.Name
	shift := now - wallClock()
	stored := *e
	stored.InsertedAt -= shift
	off, frameLen, err := t.appendFrame(encodeEntryPayload(&stored))
	if err != nil {
		return nil, err
	}
	t.nextSeq++
	t.index.Put(name, fileSlot{off: off, len: frameLen, seq: t.nextSeq, shift: shift})
	t.queue = append(t.queue, fifoSlot{name: name, seq: t.nextSeq})
	var evicted []*cache.Entry
	if t.cfg.Capacity > 0 {
		for t.index.Len() > t.cfg.Capacity {
			victim, ok := t.evictOldest(name)
			if !ok {
				break
			}
			evicted = append(evicted, victim)
		}
	}
	return evicted, nil
}

// evictOldest removes the oldest-written live object other than keep,
// reading it back for the caller's lifecycle bookkeeping and logging a
// tombstone so the eviction survives reopen.
func (t *FileTier) evictOldest(keep ndn.Name) (*cache.Entry, bool) {
	for len(t.queue) > 0 {
		slot := t.queue[0]
		t.queue = t.queue[1:]
		live, ok := t.index.Get(slot.name)
		if !ok || live.seq != slot.seq || slot.name.Equal(keep) {
			continue
		}
		victim, err := t.readSlot(live)
		t.index.Delete(slot.name)
		// A tombstone write failure leaves a resurrectable record in the
		// log; accept that (reopen resurrects it into the index, and
		// capacity enforcement evicts it again) rather than fail eviction.
		t.appendFrame(encodeTombstonePayload(slot.name.String()))
		if err != nil {
			continue // unreadable victim: nothing to hand back
		}
		return victim, true
	}
	return nil, false
}

// readSlot reads and decodes the record at slot, its insertion time
// back on the executor clock.
func (t *FileTier) readSlot(slot fileSlot) (*cache.Entry, error) {
	buf := make([]byte, slot.len)
	if _, err := t.f.ReadAt(buf, slot.off); err != nil {
		return nil, fmt.Errorf("tiered: reading record at %d: %w", slot.off, err)
	}
	payload, _, err := parseFrame(buf)
	if err != nil {
		return nil, err
	}
	entry, tombstoneKey, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	if entry == nil {
		return nil, fmt.Errorf("%w: indexed slot holds tombstone %q", errCorruptRecord, tombstoneKey)
	}
	entry.InsertedAt += slot.shift
	return entry, nil
}

// wallClock reads the wall clock as an offset from the Unix epoch. The
// file tier is the daemon's: its insertion times must outlive the
// process, which the executor clock does not.
func wallClock() time.Duration {
	return time.Duration(time.Now().UnixNano()) //ndnlint:allow simdeterminism — persisted insertion times must survive a restart; never feeds the simulator
}

// Peek implements cache.SecondTier: reads the entry back from the log.
// Reported cost is zero — the real I/O latency is wall-clock
// observable, not modeled.
func (t *FileTier) Peek(name ndn.Name, now time.Duration) (*cache.Entry, time.Duration, bool) {
	slot, ok := t.index.Get(name)
	if !ok {
		return nil, 0, false
	}
	entry, err := t.readSlot(slot)
	if err != nil {
		// The record rotted under us (torn by an external writer, bad
		// sector). Drop it from the index so the failure is not sticky.
		t.index.Delete(name)
		return nil, 0, false
	}
	return entry, 0, true
}

// Remove implements cache.SecondTier, logging a tombstone so the removal
// survives reopen.
func (t *FileTier) Remove(name ndn.Name) (*cache.Entry, bool) {
	slot, ok := t.index.Delete(name)
	if !ok {
		return nil, false
	}
	entry, err := t.readSlot(slot)
	if _, _, werr := t.appendFrame(encodeTombstonePayload(name.String())); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		// Removal succeeded logically; the entry just can't be handed
		// back. Return a placeholder-free miss on the entry.
		return nil, false
	}
	return entry, true
}

// Sync flushes the log to stable storage.
func (t *FileTier) Sync() error {
	if err := t.f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}
