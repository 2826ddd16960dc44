package cache

import (
	"fmt"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// The optional second tier: a bounded RAM front (the store's composite
// table) over a large backend sized for millions of objects. Content is
// admitted to the RAM front, demoted to the second tier when the RAM
// front needs the room, and promoted back on an exact second-tier hit,
// so an object lives in exactly one tier at a time. Tier placement is a
// function of how recently content was used, and the RAM/disk/miss
// latency classes hand the paper's timing adversary a three-way
// observable instead of a binary one — the recency side channel the
// attack and audit layers measure.
//
// Backends live in internal/cache/tiered: DiskModel is the simulator's
// deterministic virtual-time disk, FileTier a real append-log file store
// for cmd/ndnd.

// SecondTier is the storage contract of the large second tier. Keys are
// full-name keys (ndn.Name.Key). Implementations own entry storage but
// not entry lifecycle: eviction events, spans, and hooks stay with the
// Store, which is why Put and Remove hand entries back.
type SecondTier interface {
	// Name names the backend for diagnostics ("disk-model", "file").
	Name() string
	// Put stores the entry at virtual time now. When the tier is at
	// capacity it evicts oldest-written entries and returns them so the
	// owner can finish their lifecycle.
	Put(e *Entry, now time.Duration) ([]*Entry, error)
	// Peek returns the stored entry and the modeled service cost of
	// reading it at virtual time now, without removing it. Deterministic
	// backends advance their device-queue state; real backends report
	// zero cost (their I/O time is physically observable).
	Peek(key string, now time.Duration) (*Entry, time.Duration, bool)
	// Remove deletes the entry without modeling a read, returning it for
	// lifecycle bookkeeping.
	Remove(key string) (*Entry, bool)
	// Len returns the number of stored objects; Capacity the configured
	// bound (0 = unlimited).
	Len() int
	Capacity() int
	// Close releases backend resources (files); harmless on models.
	Close() error
}

// demotedRef is one second-tier resident as the store knows it. The name
// serves wire probes, Names and Clear; the open residency span waits
// here rather than on the demoted Entry because a serializing backend
// hands back a reconstruction, not the pointer it was given.
type demotedRef struct {
	name      ndn.Name
	residency *span.Record
}

// NewTieredStore creates a store whose table is a RAM front of
// ramCapacity objects, evicted per policy, over the second tier. The
// store owns second from here on (see Close).
func NewTieredStore(ramCapacity int, policy Policy, second SecondTier) (*Store, error) {
	if ramCapacity <= 0 {
		return nil, fmt.Errorf("cache: RAM front needs a positive capacity, got %d", ramCapacity)
	}
	if second == nil {
		return nil, fmt.Errorf("cache: second tier required")
	}
	s, err := NewStore(ramCapacity, policy)
	if err != nil {
		return nil, err
	}
	s.second = second
	s.demoted = make(map[uint64][]demotedRef)
	return s, nil
}

// RAMLen returns the number of objects resident in the table; SecondLen
// the number in the second tier.
func (s *Store) RAMLen() int { return s.t.LenCS() }
func (s *Store) SecondLen() int {
	if s.second == nil {
		return 0
	}
	return s.second.Len()
}

// DiskHits counts the hits the second tier served (Hits includes them);
// Promotions and Demotions count inter-tier movement. All stay zero on a
// flat store.
func (s *Store) DiskHits() uint64   { return s.counts[telemetry.StageSecondHit] }
func (s *Store) Promotions() uint64 { return s.counts[telemetry.StagePromote] }
func (s *Store) Demotions() uint64  { return s.counts[telemetry.StageDemote] }

// Close releases the second-tier backend (a no-op for the in-memory
// disk model; the file tier closes its log). A flat store and the table
// need no teardown.
func (s *Store) Close() error {
	if s.second == nil {
		return nil
	}
	return s.second.Close()
}

// MatchSecond is the second-tier half of Match, for the caller whose
// MatchProbed just missed the table. Like production disk tiers the
// second tier indexes full names only, so it answers an interest only
// for exactly interest.Name — prefix interests are served from the
// table or not at all. A hit promotes the entry into the table and
// returns it with the modeled cost of the read (zero for real backends,
// whose I/O time is physically observable), which the forwarder adds to
// the response delay: the third latency class the adversary measures.
// A flat store reports a miss.
func (s *Store) MatchSecond(interest *ndn.Interest, now time.Duration) (*Entry, time.Duration, bool) {
	if s.second == nil {
		return nil, 0, false
	}
	entry, cost, found := s.readSecond(interest.Name, interest, now, true)
	s.countLookup(found)
	return entry, cost, found
}

// readSecond is the second-tier exact lookup: peek, purge stale, verify
// against the interest when given, and promote on hit unless the caller
// is a pure probe.
func (s *Store) readSecond(name ndn.Name, interest *ndn.Interest, now time.Duration, promote bool) (*Entry, time.Duration, bool) {
	key := name.Key()
	entry, cost, found := s.second.Peek(key, now)
	if !found {
		return nil, 0, false
	}
	if entry.IsStale(now) {
		s.second.Remove(key)
		entry.residency = s.dropDemoted(name)
		s.finish(entry, telemetry.StageEvict, ReasonStale, now)
		return nil, 0, false
	}
	if interest != nil && !entry.Data.Matches(interest) {
		return nil, 0, false
	}
	s.rec(&telemetry.Rec{Stage: telemetry.StageSecondHit})
	if promote {
		s.promote(entry, now, cost)
	}
	return entry, cost, true
}

// peekSecondView is the pure second-tier probe for a name that may be
// borrowed: the demoted index resolves it by hash to the owned name the
// store keeps, without materializing a key on the miss path.
func (s *Store) peekSecondView(name ndn.Name, now time.Duration) (*Entry, bool) {
	for _, ref := range s.demoted[name.Hash()] {
		if ref.name.Equal(name) {
			entry, _, found := s.readSecond(ref.name, nil, now, false)
			return entry, found
		}
	}
	return nil, false
}

// promote moves a second-tier entry into the table after a hit. The
// entry itself moves, so the metadata the cache-management algorithms
// track — and the original insertion time the freshness clock runs on —
// survive. cost is the modeled read latency, recorded on the promote
// trace event.
func (s *Store) promote(entry *Entry, now, cost time.Duration) {
	name := entry.Data.Name
	key := name.Key()
	s.rec(&telemetry.Rec{Stage: telemetry.StagePromote, Name: key, T0: int64(now), T1: int64(now), Value: uint64(cost)})
	s.second.Remove(key)
	entry.residency = s.dropDemoted(name)
	s.makeRoom(now)
	s.t.AttachCS(s.t.Put(name), entry)
}

// demote moves the table's eviction victim down to the second tier;
// a victim already past its freshness bound dies instead.
func (s *Store) demote(victim *pcct.Entry, now time.Duration) {
	entry := s.detach(victim)
	if entry.IsStale(now) {
		s.finish(entry, telemetry.StageEvict, ReasonStale, now)
		return
	}
	s.rec(&telemetry.Rec{Stage: telemetry.StageDemote, Name: entry.Data.Name.Key(), T0: int64(now), T1: int64(now)})
	evicted, err := s.second.Put(entry, now)
	if err != nil {
		// A failed second-tier write loses the entry (the table has
		// already let go of it); finish its lifecycle without counting
		// an eviction.
		s.finish(entry, telemetry.StageEvict, ReasonCapacity, now)
		return
	}
	s.rec(&telemetry.Rec{Stage: telemetry.StageTierWrite})
	h := entry.Data.Name.Hash()
	s.demoted[h] = append(s.demoted[h], demotedRef{name: entry.Data.Name, residency: entry.residency})
	entry.residency = nil
	for _, overflow := range evicted {
		overflow.residency = s.dropDemoted(overflow.Data.Name)
		s.finish(overflow, telemetry.StageEvictCapacity, ReasonCapacity, now)
	}
}

// takeSecond removes name from the second tier and hands the entry back
// with its residency span reattached; nil when the tier does not hold it.
func (s *Store) takeSecond(name ndn.Name) *Entry {
	entry, had := s.second.Remove(name.Key())
	if !had {
		return nil
	}
	entry.residency = s.dropDemoted(name)
	return entry
}

// dropDemoted removes name from the demoted index and returns the
// residency span it held (swap-with-last; lookups verify full equality,
// so bucket order is irrelevant).
func (s *Store) dropDemoted(name ndn.Name) *span.Record {
	h := name.Hash()
	bucket := s.demoted[h]
	for i, ref := range bucket {
		if !ref.name.Equal(name) {
			continue
		}
		last := len(bucket) - 1
		bucket[i] = bucket[last]
		bucket[last] = demotedRef{}
		if last == 0 {
			delete(s.demoted, h)
		} else {
			s.demoted[h] = bucket[:last]
		}
		return ref.residency
	}
	return nil
}
