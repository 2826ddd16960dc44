// Package tiered holds the back-ends for cache.Store's optional second
// tier (cache.SecondTier): DiskModel, the simulator's deterministic
// virtual-time disk, and FileTier, a real append-log file store for
// cmd/ndnd, with its on-disk record codec. The tiering itself —
// admission, demotion, promotion — is cache.Store's.
package tiered

import (
	"fmt"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

// DiskModelConfig parameterizes the simulator's deterministic disk.
type DiskModelConfig struct {
	// Capacity bounds the number of stored objects; 0 means unlimited.
	// At capacity the oldest-written object is evicted (FIFO by write
	// order — the natural order of an append-structured store).
	Capacity int
	// ReadLatency is the fixed per-read service latency (seek/firmware);
	// defaults to 2ms. WriteLatency is the per-write equivalent;
	// defaults to ReadLatency.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// BytesPerSecond is the transfer bandwidth; defaults to 200 MB/s.
	// Transfer time is wire size / bandwidth, added to the fixed latency.
	BytesPerSecond int64
}

func (c *DiskModelConfig) setDefaults() {
	if c.ReadLatency == 0 {
		c.ReadLatency = 2 * time.Millisecond
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = c.ReadLatency
	}
	if c.BytesPerSecond == 0 {
		c.BytesPerSecond = 200 << 20
	}
}

// diskRec is one stored object plus its write sequence (for the FIFO
// eviction queue's lazy-deletion check).
type diskRec struct {
	entry *cache.Entry
	size  int
	seq   uint64
}

// fifoSlot is one pending eviction candidate; stale slots (seq no
// longer current for the name) are skipped on pop.
type fifoSlot struct {
	name ndn.Name
	seq  uint64
}

// DiskModel is the simulator's second tier: a virtual-time disk with a
// fixed service latency, a transfer bandwidth, and a single request
// queue. Service cost is computed from configuration and the device's
// busy horizon only — no randomness, no wall clock — so a fixed seed
// reproduces every modeled latency exactly.
//
// The queue model makes cost load-dependent: a request arriving while
// the device is still busy with earlier requests waits for the busy
// horizon first. That is what gives the disk tier a *distribution* of
// observable latencies rather than a constant, which is exactly the
// structure the three-way classifier has to cope with.
type DiskModel struct {
	cfg       DiskModelConfig
	entries   ndn.NameMap[diskRec]
	queue     []fifoSlot
	nextSeq   uint64
	busyUntil time.Duration

	// reads/writes count device operations for diagnostics.
	reads  uint64
	writes uint64
}

var _ cache.SecondTier = (*DiskModel)(nil)

// NewDiskModel builds a deterministic disk model.
func NewDiskModel(cfg DiskModelConfig) *DiskModel {
	cfg.setDefaults()
	return &DiskModel{cfg: cfg}
}

// Name implements cache.SecondTier.
func (d *DiskModel) Name() string { return "disk-model" }

// Len implements cache.SecondTier.
func (d *DiskModel) Len() int { return d.entries.Len() }

// Capacity implements cache.SecondTier.
func (d *DiskModel) Capacity() int { return d.cfg.Capacity }

// Close implements cache.SecondTier; the model holds no resources.
func (d *DiskModel) Close() error { return nil }

// Writes reports the device's write count.
func (d *DiskModel) Writes() uint64 { return d.writes }

// occupy advances the device's busy horizon by one operation of fixed
// latency plus the transfer time for size bytes, returning the
// operation's completion delay relative to now (queueing included).
func (d *DiskModel) occupy(now, fixed time.Duration, size int) time.Duration {
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	transfer := time.Duration(int64(size) * int64(time.Second) / d.cfg.BytesPerSecond)
	done := start + fixed + transfer
	d.busyUntil = done
	return done - now
}

// Put implements cache.SecondTier. Writes occupy the device (a demotion
// burst delays reads queued behind it) and evict oldest-written
// objects past capacity.
func (d *DiskModel) Put(e *cache.Entry, now time.Duration) ([]*cache.Entry, error) {
	name := e.Data.Name
	size := ndn.WireSize(e.Data)
	d.writes++
	d.occupy(now, d.cfg.WriteLatency, size)
	d.nextSeq++
	d.entries.Put(name, diskRec{entry: e, size: size, seq: d.nextSeq})
	d.queue = append(d.queue, fifoSlot{name: name, seq: d.nextSeq})
	var evicted []*cache.Entry
	if d.cfg.Capacity > 0 {
		for d.entries.Len() > d.cfg.Capacity {
			victim, ok := d.popOldest(name)
			if !ok {
				break
			}
			evicted = append(evicted, victim)
		}
	}
	return evicted, nil
}

// popOldest removes the oldest-written live object other than keep,
// skipping lazy-deleted queue slots.
func (d *DiskModel) popOldest(keep ndn.Name) (*cache.Entry, bool) {
	for len(d.queue) > 0 {
		slot := d.queue[0]
		d.queue = d.queue[1:]
		rec, live := d.entries.Get(slot.name)
		if !live || rec.seq != slot.seq || slot.name.Equal(keep) {
			continue
		}
		d.entries.Delete(slot.name)
		return rec.entry, true
	}
	return nil, false
}

// Peek implements cache.SecondTier: returns the entry and the modeled read
// cost at virtual time now. The read occupies the device, so
// back-to-back disk hits queue behind each other.
func (d *DiskModel) Peek(name ndn.Name, now time.Duration) (*cache.Entry, time.Duration, bool) {
	rec, ok := d.entries.Get(name)
	if !ok {
		return nil, 0, false
	}
	d.reads++
	cost := d.occupy(now, d.cfg.ReadLatency, rec.size)
	return rec.entry, cost, true
}

// Remove implements cache.SecondTier. Metadata-only: no device time.
func (d *DiskModel) Remove(name ndn.Name) (*cache.Entry, bool) {
	rec, ok := d.entries.Delete(name)
	if !ok {
		return nil, false
	}
	return rec.entry, true
}

// String summarizes device state for diagnostics.
func (d *DiskModel) String() string {
	return fmt.Sprintf("disk-model{objects=%d reads=%d writes=%d busy=%s}",
		d.entries.Len(), d.reads, d.writes, d.busyUntil)
}
