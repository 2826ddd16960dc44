package cache

import (
	"fmt"
	"sort"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// Entry is one cached content object plus the metadata the paper's cache
// management algorithms consult.
type Entry struct {
	// Data is the cached content object: the packet the store was
	// handed, shared and never written (see ndn.Data).
	Data *ndn.Data
	// Fetch is the span context of the hop that fetched the object, set
	// by the forwarder on each insert; cache-manager state changes on
	// later cached-draw paths (coin spans) parent under it. Zero when
	// untraced.
	Fetch span.Context
	// InsertedAt is the virtual time the object entered the cache.
	InsertedAt time.Duration
	// FetchDelay records the original interest-in→content-out delay γ_C —
	// how long this router took to obtain the content the first time
	// (Section V-B, content-specific delay).
	FetchDelay time.Duration
	// ForwardCount is S(C): how many times the router has forwarded this
	// content (Section IV system model). It survives within the entry's
	// cache lifetime.
	ForwardCount uint64
	// Private records router-side privacy marking: producer-driven (bit
	// or /private/ component) or consumer-driven (privacy bit on the
	// interest that fetched it).
	Private bool
	// NonPrivateTrigger is set once a non-private interest has been
	// answered for this entry; from then on the content is treated as
	// non-private for as long as it stays cached (Section V-B trigger
	// rule).
	NonPrivateTrigger bool
	// Counter is c_C from Algorithm 1: requests seen since insertion.
	Counter uint64
	// Threshold is k_C from Algorithm 1; meaningful when ThresholdSet.
	Threshold uint64
	// ThresholdSet records whether k_C has been drawn for this entry.
	ThresholdSet bool
	// GroupKey, when non-empty, names the correlation group this entry
	// shares Random-Cache state with (Section VI, "Addressing Content
	// Correlation").
	GroupKey string
	// residency is the open cache-lifetime span (insert → eviction);
	// nil when span tracing is disabled.
	residency *span.Record
}

// IsStale reports whether the entry's freshness period has lapsed at
// virtual time now. Entries without a freshness bound never go stale.
func (e *Entry) IsStale(now time.Duration) bool {
	return e.Data.Freshness > 0 && now-e.InsertedAt >= e.Data.Freshness
}

// entryPoolCap bounds the store's recycled-Entry free list.
const entryPoolCap = 1024

// Store is an NDN Content Store over the PIT-CS composite table, with an
// optional second tier behind it (NewTieredStore, second.go). A capacity
// of 0 means unlimited (the paper's "Inf" baseline). Store is not safe
// for concurrent use; each simulated node runs single-threaded on the
// event loop.
type Store struct {
	capacity int
	policy   Policy
	// t holds the entries: the CS facet of a composite table. The
	// forwarder runs its PIT on the same table (see Table), so one probe
	// per arriving interest resolves both.
	t *pcct.Table
	// pool recycles Entry metadata structs across insert/evict churn.
	// Recycling is skipped whenever an eviction hook is registered — a
	// hook may legitimately retain the entry — and for entries demoted
	// to the second tier, which owns them from then on.
	pool    []*Entry
	onEvict func(*Entry)

	// second is the optional large tier behind the table; nil for a flat
	// store. An object lives in exactly one tier: the table (the RAM
	// front) or second. demoted indexes the second tier's residents by
	// name hash (see second.go).
	second  SecondTier
	demoted map[uint64][]demotedRef

	// counts tallies the store's stage outcomes for the accessors below,
	// whether or not a tap is attached; tap is the node's observation
	// seam, nil when nothing is attached.
	counts [telemetry.NumStages]uint64
	tap    *telemetry.Tap
}

// NewStore creates a store with the given capacity and eviction policy.
// policy must be non-nil when capacity > 0.
func NewStore(capacity int, policy Policy) (*Store, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	if capacity > 0 && policy == nil {
		return nil, fmt.Errorf("cache: bounded store (capacity %d) requires an eviction policy", capacity)
	}
	if policy == nil {
		policy = NewLRU() // harmless bookkeeping for unlimited stores
	}
	return &Store{capacity: capacity, policy: policy, t: pcct.New(policy.kind())}, nil
}

// MustNewStore is NewStore that panics on error, for tests and examples
// with constant arguments.
func MustNewStore(capacity int, policy Policy) *Store {
	s, err := NewStore(capacity, policy)
	if err != nil {
		panic(err)
	}
	return s
}

// Table exposes the underlying composite table: the forwarder runs its
// PIT on it, so CS-check, PIT-aggregate and PIT-insert share one hash
// probe per arriving interest.
func (s *Store) Table() *pcct.Table { return s.t }

// Len returns the number of cached objects, both tiers included.
func (s *Store) Len() int {
	if s.second != nil {
		return s.t.LenCS() + s.second.Len()
	}
	return s.t.LenCS()
}

// Capacity returns the total object capacity, the second tier's
// included (0 = unlimited).
func (s *Store) Capacity() int {
	if s.second == nil {
		return s.capacity
	}
	if s.second.Capacity() == 0 {
		return 0
	}
	return s.capacity + s.second.Capacity()
}

// Evictions returns the running count of capacity evictions: objects
// the store dropped to make room. With a second tier only that tier's
// overflow counts — a demotion keeps the content cached.
func (s *Store) Evictions() uint64 { return s.counts[telemetry.StageEvictCapacity] }

// Insertions returns the running count of inserted objects.
func (s *Store) Insertions() uint64 { return s.counts[telemetry.StageInsert] }

// Hits returns the running count of lookups answered by a fresh entry
// in either tier, including hits the privacy layer later disguises.
func (s *Store) Hits() uint64 { return s.counts[telemetry.StageLookupHit] }

// Misses returns the running count of lookups that found no fresh entry
// in any tier.
func (s *Store) Misses() uint64 { return s.counts[telemetry.StageLookupMiss] }

// Attach connects the store to its node's tap: every stage outcome the
// store records from then on — lookups, inserts, evictions, tier
// movement, cache-residency spans — reaches the tap's consumers. Attach
// before traffic: counts from earlier stay with the accessors.
func (s *Store) Attach(tap *telemetry.Tap) {
	s.tap = tap
	last := telemetry.StageResident
	if s.second != nil {
		last = telemetry.StageTierWrite
	}
	tap.Register(telemetry.StageLookupHit, last)
}

// rec is the store's one recording call per stage outcome: it tallies
// the outcome for the accessors and hands it to the tap.
func (s *Store) rec(r *telemetry.Rec) *span.Record {
	s.counts[r.Stage]++
	if s.tap == nil {
		return nil
	}
	return s.tap.Record(r)
}

// FinishSpans closes every still-open residency span at virtual time
// now with action "resident" — call once at end of run so entries that
// were never evicted still export a bounded span. The walk follows the
// sorted prefix index, so output order is deterministic.
func (s *Store) FinishSpans(now time.Duration) {
	if s.tap.Tracer() == nil {
		return
	}
	end := telemetry.Rec{Stage: telemetry.StageResident, T0: int64(now), T1: int64(now)}
	for i := 0; i < s.t.CSIndexLen(); i++ {
		entry := s.t.CSIndex(i).CS().(*Entry)
		if end.Span = entry.residency; end.Span != nil {
			s.rec(&end)
			entry.residency = nil
		}
	}
	// Ending a span mutates its record in place, so the walk order over
	// the demoted index does not reach the output.
	for _, bucket := range s.demoted {
		for i := range bucket {
			if end.Span = bucket[i].residency; end.Span != nil {
				s.rec(&end)
				bucket[i].residency = nil
			}
		}
	}
}

// PolicyName returns the eviction policy's name; a tiered store names
// the composite, backend included.
func (s *Store) PolicyName() string {
	if s.second != nil {
		return fmt.Sprintf("tiered(%s+%s)", s.policy.Name(), s.second.Name())
	}
	return s.policy.Name()
}

// SetEvictionHook registers a callback invoked whenever an entry leaves
// the store entirely (capacity eviction, staleness purge, or explicit
// removal) — never on movement between tiers, which keeps the content
// cached. Cache managers with out-of-entry state — GroupedRandomCache —
// use it to garbage-collect.
func (s *Store) SetEvictionHook(hook func(*Entry)) { s.onEvict = hook }

// RemoveReason classifies why an entry left the store. The values double
// as the Action strings on EvCSEvict trace events.
type RemoveReason string

const (
	// ReasonCapacity: the eviction policy chose a victim to make room.
	ReasonCapacity RemoveReason = "capacity"
	// ReasonStale: a lookup found the entry past its freshness bound.
	ReasonStale RemoveReason = "stale"
	// ReasonRemove: explicit Remove call.
	ReasonRemove RemoveReason = "remove"
	// ReasonClear: explicit Clear call.
	ReasonClear RemoveReason = "clear"
)

// Insert caches data, making room per policy if the table is full: a
// flat store evicts the victim, a tiered store demotes it. It returns
// the entry for metadata updates. Content the store already holds — in
// either tier — is refreshed: the packet and timing are replaced, the
// counters the cache-management algorithms keep on the entry survive.
//
// The store keeps data itself, copying nothing: a packet is immutable
// once handed to a forwarder or a store (see ndn.Data), so the entry
// may share it with in-flight hops and with other stores. A caller
// holding a packet or buffer it may still write inserts a Data.Clone,
// as Producer.Publish does.
func (s *Store) Insert(data *ndn.Data, now, fetchDelay time.Duration) *Entry {
	key := data.Name.Key()
	p := s.t.Probe(data.Name)
	if e := p.Entry; e != nil && e.CS() != nil {
		existing := e.CS().(*Entry)
		existing.Data = data
		existing.InsertedAt = now
		existing.FetchDelay = fetchDelay
		s.t.CSRefresh(e)
		s.rec(&telemetry.Rec{Stage: telemetry.StageRefresh, Name: key, T0: int64(now), T1: int64(now)})
		return existing
	}
	// A refresh can also find the object demoted (a prefix interest
	// misses the second tier's exact-only index, so the Data comes back
	// from upstream): the same entry returns to the table.
	var entry *Entry
	if s.second != nil {
		entry = s.takeSecond(data.Name)
	}
	s.makeRoom(now)
	stage := telemetry.StageRefresh
	if entry == nil {
		stage = telemetry.StageInsert
		entry = s.newEntry()
		entry.Private = data.IsPrivate()
	}
	entry.Data = data
	entry.InsertedAt = now
	entry.FetchDelay = fetchDelay
	// Making room may have mutated the table; PutProbed re-probes only
	// then.
	s.t.AttachCS(s.t.PutProbed(&p, data.Name), entry)
	// A new entry opens its residency span, which lives outside any
	// trace: one entry serves many fetches across its cache lifetime.
	if residency := s.rec(&telemetry.Rec{Stage: stage, Name: key, T0: int64(now), T1: int64(now)}); residency != nil {
		entry.residency = residency
	}
	return entry
}

// makeRoom frees one table slot when the table is at capacity: the
// policy's victim is evicted from a flat store and demoted to the second
// tier of a tiered one.
func (s *Store) makeRoom(now time.Duration) {
	for s.capacity > 0 && s.t.LenCS() >= s.capacity {
		victim := s.t.CSVictim()
		if victim == nil {
			break
		}
		if s.second != nil {
			s.demote(victim, now)
			continue
		}
		s.removeEntry(victim, now, ReasonCapacity)
	}
}

// newEntry takes a recycled Entry from the pool or allocates one.
func (s *Store) newEntry() *Entry {
	if n := len(s.pool); n > 0 {
		entry := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return entry
	}
	return &Entry{}
}

// Exact returns the entry whose name equals name exactly, if fresh. A
// second-tier hit promotes the entry into the table.
func (s *Store) Exact(name ndn.Name, now time.Duration) (*Entry, bool) {
	entry, found := s.lookupExact(name, now)
	if !found && s.second != nil {
		entry, _, found = s.readSecond(name, nil, now, true)
	}
	s.countLookup(found)
	return entry, found
}

// lookupExact is the table half of Exact, without hit/miss accounting.
func (s *Store) lookupExact(name ndn.Name, now time.Duration) (*Entry, bool) {
	e := s.t.Get(name)
	if e == nil || e.CS() == nil {
		return nil, false
	}
	entry := e.CS().(*Entry)
	if entry.IsStale(now) {
		s.removeEntry(e, now, ReasonStale)
		return nil, false
	}
	return entry, true
}

// countLookup records one lookup outcome.
func (s *Store) countLookup(hit bool) {
	lookup := telemetry.Rec{Stage: telemetry.StageLookupMiss}
	if hit {
		lookup.Stage = telemetry.StageLookupHit
	}
	s.rec(&lookup)
}

// ProbeName captures one hash probe for name. The forwarder takes the
// probe once per arriving interest and feeds it to MatchProbed and then
// the PIT's InsertProbed, so the CS check, the PIT aggregate check and
// the PIT insert cost a single probe.
func (s *Store) ProbeName(name ndn.Name) pcct.Probe { return s.t.Probe(name) }

// ProbeView resolves both facets of the composite table with one hash
// probe — the hit/miss decision the timing adversary measures, taken
// over a name that may be borrowed straight off the wire buffer: the
// probe keeps nothing of it. The name's hash selects the probe start and
// a comparison of the names' bytes verifies membership. cached follows
// Exact semantics (stale purge, hit/miss accounting) except that a
// second-tier hit is reported without promoting, so probing cannot
// reshape tier placement; pending reports whether a live PIT facet
// awaits the name at virtual time now. Pending state is read before any
// stale purge, which may release the table entry.
func (s *Store) ProbeView(name ndn.Name, now time.Duration) (entry *Entry, cached, pending bool) {
	if e := s.t.Get(name); e != nil {
		pending = e.PITActive() && now < e.PIT().Expires
		if e.CS() != nil {
			ce := e.CS().(*Entry)
			if ce.IsStale(now) {
				s.removeEntry(e, now, ReasonStale)
			} else {
				entry, cached = ce, true
			}
		}
	}
	if !cached && s.second != nil {
		entry, cached = s.peekSecondView(name, now)
	}
	s.countLookup(cached)
	return entry, cached, pending
}

// Match finds a cached object satisfying the interest under NDN's
// longest-prefix rule (Section II footnote 2), skipping stale entries and
// honoring the unpredictable-suffix restriction. Among multiple matches
// the lexicographically smallest full name wins, which makes simulation
// runs deterministic. It is the forwarder's lookup sequence in one call:
// MatchProbed over the table, then MatchSecond.
func (s *Store) Match(interest *ndn.Interest, now time.Duration) (*Entry, bool) {
	p := s.t.Probe(interest.Name)
	entry, found := s.MatchProbed(interest, &p, now)
	if !found {
		entry, _, found = s.MatchSecond(interest, now)
	}
	return entry, found
}

// MatchProbed is the table half of Match, reusing an earlier probe of
// interest.Name. On a tiered store a miss here is not yet a store miss
// and is left uncounted: the caller follows with MatchSecond, which
// settles the lookup's outcome.
func (s *Store) MatchProbed(interest *ndn.Interest, p *pcct.Probe, now time.Duration) (*Entry, bool) {
	if !p.Valid(s.t) {
		*p = s.t.Probe(interest.Name)
	}
	// Fast path: exact name.
	if e := p.Entry; e != nil && e.CS() != nil {
		entry := e.CS().(*Entry)
		if !entry.IsStale(now) {
			s.countLookup(true)
			return entry, true
		}
		s.removeEntry(e, now, ReasonStale)
	}
	// Prefix range: all names under interest.Name form a contiguous,
	// sorted run of the index, so the first fresh match is the
	// lexicographically smallest. The exact name is settled above, so
	// only a longer cached name can still match; with none, the table
	// never has to build its sorted index for this lookup.
	i := s.t.CSIndexLen()
	if s.t.CSLongerThan(interest.Name.Len()) {
		i = s.t.CSLowerBound(interest.Name)
	}
	for i < s.t.CSIndexLen() {
		e := s.t.CSIndex(i)
		if !interest.Name.IsPrefixOf(e.Name()) {
			break
		}
		entry := e.CS().(*Entry)
		if entry.IsStale(now) {
			// Removal closes the index gap; the next candidate slides
			// into position i.
			s.removeEntry(e, now, ReasonStale)
			continue
		}
		if entry.Data.Matches(interest) {
			s.countLookup(true)
			return entry, true
		}
		i++
	}
	if s.second == nil {
		s.countLookup(false)
	}
	return nil, false
}

// Touch records a cache hit on the entry for eviction-recency purposes.
// Call it on every hit, including hits the privacy layer disguises as
// misses (Section VII: delayed responses still refresh the entry). Only
// the table tracks recency; promotion is what refreshes a demoted
// object's.
func (s *Store) Touch(name ndn.Name) {
	if e := s.t.Get(name); e != nil && e.CS() != nil {
		s.t.CSAccess(e)
	}
}

// Remove deletes the entry for exactly name from whichever tier holds
// it, reporting whether it existed. now is the virtual time of the
// management operation; it stamps the eviction trace event and closes
// the entry's residency span at a real timestamp instead of zero.
func (s *Store) Remove(name ndn.Name, now time.Duration) bool {
	return s.remove(name, now, ReasonRemove)
}

func (s *Store) remove(name ndn.Name, now time.Duration, reason RemoveReason) bool {
	if e := s.t.Get(name); e != nil && e.CS() != nil {
		s.removeEntry(e, now, reason)
		return true
	}
	if s.second != nil {
		if entry := s.takeSecond(name); entry != nil {
			s.finish(entry, telemetry.StageEvict, reason, now)
			return true
		}
	}
	return false
}

// Clear empties the store at virtual time now, preserving
// configuration. It walks names in sorted order so the eviction-event
// order is deterministic.
func (s *Store) Clear(now time.Duration) {
	for _, name := range s.Names() {
		s.remove(name, now, ReasonClear)
	}
}

// Names returns the full names of all cached objects, both tiers
// included, sorted.
func (s *Store) Names() []ndn.Name {
	out := make([]ndn.Name, s.t.CSIndexLen(), s.Len())
	for i := range out {
		out[i] = s.t.CSIndex(i).Name()
	}
	if len(s.demoted) == 0 {
		return out
	}
	for _, bucket := range s.demoted {
		for _, ref := range bucket {
			out = append(out, ref.name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// removeEntry ends the store lifetime of the object in table entry e:
// it detaches the CS facet, releases the table entry unless a PIT facet
// keeps it alive, runs the removal side effects and recycles the Entry.
func (s *Store) removeEntry(e *pcct.Entry, now time.Duration, reason RemoveReason) {
	stage := telemetry.StageEvict
	if reason == ReasonCapacity {
		stage = telemetry.StageEvictCapacity
	}
	entry := s.detach(e)
	s.finish(entry, stage, reason, now)
	if s.onEvict == nil && len(s.pool) < entryPoolCap {
		// A hook may retain the entry; hooked entries are never recycled.
		*entry = Entry{}
		s.pool = append(s.pool, entry)
	}
}

// detach takes e's CS facet off the table and returns its payload.
func (s *Store) detach(e *pcct.Entry) *Entry {
	entry := e.CS().(*Entry)
	s.t.DetachCS(e)
	s.t.ReleaseIfEmpty(e)
	return entry
}

// finish runs the side effects of an object leaving the store from
// either tier: the eviction record under stage (which closes the
// residency span), then the eviction hook. StageEvictCapacity is for
// objects dropped to make room, the only removals Evictions counts.
func (s *Store) finish(entry *Entry, stage telemetry.Stage, reason RemoveReason, now time.Duration) {
	s.rec(&telemetry.Rec{Stage: stage, Name: entry.Data.Name.Key(), Action: string(reason),
		T0: int64(now), T1: int64(now), Span: entry.residency})
	entry.residency = nil
	if s.onEvict != nil {
		s.onEvict(entry)
	}
}
