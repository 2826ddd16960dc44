// Package pcct implements the PIT-CS composite table: a single
// open-addressing hash table, keyed by the rolling-FNV name hash every
// ndn.Name carries, whose entries carry two independent facets — a
// Content Store facet (payload + intrusive eviction-policy links) and a
// PIT facet (downstream faces, nonces, expiry). The design follows ndn-dpdk's PCCT (csrc/pcct): one hash
// probe per arriving interest resolves CS-check, PIT-aggregate and
// PIT-insert, and a Data packet can carry a direct entry token back
// instead of re-probing.
//
// Entries live in a chunked arena with a free list, so steady-state
// insert/remove churn allocates nothing and entry pointers stay stable
// across growth. Tokens are (generation, arena id) pairs: a recycled
// entry bumps its generation, so stale tokens are detected instead of
// resolving to the wrong name.
//
// Prefix lookups are served by a sorted index of the CS-faceted entries
// (CSLowerBound/CSIndex), and that index is built on demand: a table
// that only ever sees exact-name traffic — trace replay, a router whose
// consumers name what they fetch — keeps just a per-name-length count of
// CS facets (CSLongerThan, the mirror of PITLenAt), which lets the
// caller prove "nothing cached extends this name" without any ordered
// structure. The first call that needs name order sorts the arena's CS
// entries once; from then on every attach and detach keeps the index
// sorted. Names are unique, so the late-built index is the one eager
// maintenance would have produced.
//
// Nothing in this package iterates a Go map — bucket probing, the
// policy lists and the sorted prefix index are all slice-backed — so
// every enumeration order is a pure function of the operation history,
// which is what the simulator's byte-identity determinism tests demand.
//
// The table is not safe for concurrent use; each simulated node runs
// single-threaded on its executor.
package pcct

import (
	"slices"
	"time"

	"ndnprivacy/internal/ndn"
)

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	// nilID terminates intrusive lists and marks empty bucket slots.
	nilID = int32(-1)
	// minBuckets is the initial bucket-array size (power of two).
	minBuckets = 64
)

// FaceRec records one downstream face awaiting content, together with
// the PIT token that face's node attached to its interest (zero when
// the face is an application or a node without token support).
type FaceRec struct {
	Face  int64
	Token uint64
}

// PITFacet is the pending-interest side of a composite entry. Slices
// are retained (length-reset) across entry lifecycles, so steady-state
// PIT churn reuses their backing arrays instead of reallocating.
type PITFacet struct {
	// Active reports whether the facet is live; an entry can exist with
	// only a CS facet.
	Active bool
	// Expires and Created are virtual times: when the entry lapses and
	// when the entry-creating interest arrived.
	Expires time.Duration
	Created time.Duration
	// Privacy records whether the entry-creating interest carried the
	// consumer privacy bit.
	Privacy bool
	// Trace and Span carry the entry-creating interest's span context.
	Trace uint64
	Span  uint64
	// Faces are the downstream faces awaiting the content, with their
	// tokens; Nonces deduplicate looped or retransmitted interests.
	Faces  []FaceRec
	Nonces []uint64
}

// Entry is one composite-table entry: a unique name plus up to two
// facets. Fields are managed through Table methods so the policy lists,
// the prefix index and the facet counts stay consistent.
type Entry struct {
	hash uint64
	name ndn.Name
	id   int32
	gen  uint32
	live bool

	// CS facet: payload plus intrusive policy-list links. csNext doubles
	// as the free-list link while the entry is released.
	csData         any
	csPrev, csNext int32
	// lfuB is the owning LFU frequency bucket, nilID outside LFU mode.
	lfuB int32

	pit PITFacet
}

// Name returns the entry's name.
func (e *Entry) Name() ndn.Name { return e.name }

// Hash returns the entry's precomputed rolling name hash.
func (e *Entry) Hash() uint64 { return e.hash }

// CS returns the Content Store payload, nil when the CS facet is
// absent.
func (e *Entry) CS() any { return e.csData }

// PITActive reports whether the PIT facet is live.
func (e *Entry) PITActive() bool { return e.pit.Active }

// PIT returns the PIT facet for in-place mutation. Callers must have
// attached it via AttachPIT.
func (e *Entry) PIT() *PITFacet { return &e.pit }

// Table is the composite table. See the package comment for the
// design; one Table may serve a Content Store, a PIT, or both at once
// (the forwarder's interest pipeline).
type Table struct {
	buckets []int32
	mask    uint32
	used    int
	// mut counts structural mutations (insert/release/grow); a Probe
	// taken at one mut value is only trusted while mut is unchanged.
	mut uint64

	chunks [][]Entry
	next   int32
	free   int32

	kind PolicyKind
	// csHead/csTail anchor the LRU/FIFO recency list (front = most
	// recent / newest).
	csHead, csTail int32
	// lfu is the frequency-bucket arena for the LFU policy; lfuHead is
	// the lowest-frequency bucket.
	lfu     []lfuBucket
	lfuFree int32
	lfuHead int32

	// csOrder holds the ids of all CS-faceted entries sorted by
	// ndn.Name.Compare — the compact prefix index replacing the
	// map-based name trie. Binary search finds any prefix range. It is
	// meaningful only once csOrdered is set: the first CSLowerBound or
	// CSIndex builds it, attach/detach maintain it from then on.
	csOrder   []int32
	csOrdered bool

	nCS, nPIT int
	// pitLens[k] counts active PIT facets whose name has k components,
	// so Data satisfaction can skip prefix lengths with no pending
	// entries without probing. csLens is the same count over CS facets:
	// a prefix lookup with no longer name cached has nothing to scan.
	pitLens []int32
	csLens  []int32

	// owned[id] is arena entry id's copy of a name only its PIT facet
	// holds (see AttachPIT), kept across the slot's lifetimes for reuse.
	// It grows only on tables that carry PIT facets.
	owned [][]byte
}

// New returns an empty table whose CS facet uses the given eviction
// policy.
func New(kind PolicyKind) *Table {
	t := &Table{
		buckets: make([]int32, minBuckets),
		mask:    minBuckets - 1,
		free:    nilID,
		kind:    kind,
		csHead:  nilID,
		csTail:  nilID,
		lfuFree: nilID,
		lfuHead: nilID,
	}
	for i := range t.buckets {
		t.buckets[i] = nilID
	}
	return t
}

// Len returns the number of live entries (composite entries count
// once).
func (t *Table) Len() int { return t.used }

// LenCS returns the number of entries with a CS facet.
func (t *Table) LenCS() int { return t.nCS }

// LenPIT returns the number of entries with an active PIT facet.
func (t *Table) LenPIT() int { return t.nPIT }

// at returns the arena entry for id.
func (t *Table) at(id int32) *Entry {
	return &t.chunks[id>>chunkShift][id&chunkMask]
}

// Get returns the live entry for exactly name, or nil. The precomputed
// name hash selects the probe start; membership is verified by comparing
// the names' bytes. name may be borrowed: the wire-facing probe takes it
// straight off the packet buffer, and Get keeps nothing of it.
func (t *Table) Get(name ndn.Name) *Entry {
	h := name.Hash()
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			return nil
		}
		e := t.at(id)
		if e.hash == h && e.name.Equal(name) {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// GetPrefix returns the live entry whose name is exactly the first k
// components of "of", given that prefix's rolling hash h (see
// ndn.MixComponentHash), or nil. This is the PIT longest-prefix probe:
// no prefix name is ever materialized.
func (t *Table) GetPrefix(h uint64, k int, of ndn.Name) *Entry {
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			return nil
		}
		e := t.at(id)
		if e.hash == h && e.name.Len() == k && e.name.IsPrefixOf(of) {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// Probe records the result of one hash probe: the entry if found, and
// otherwise the bucket slot where that name would be inserted. The slot
// is trusted only while the table's mutation counter is unchanged —
// PutProbed re-probes when it isn't.
type Probe struct {
	// Entry is the found entry, nil on a miss.
	Entry *Entry
	hash  uint64
	slot  uint32
	mut   uint64
}

// Probe looks up name and captures the probe position, so a subsequent
// PutProbed needs no second hash probe. This is the interest
// pipeline's primitive: the forwarder probes once per arriving interest and
// resolves CS-check, PIT-aggregate and PIT-insert from the result.
func (t *Table) Probe(name ndn.Name) Probe {
	h := name.Hash()
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			return Probe{hash: h, slot: i, mut: t.mut}
		}
		e := t.at(id)
		if e.hash == h && e.name.Equal(name) {
			return Probe{Entry: e, hash: h, slot: i, mut: t.mut}
		}
		i = (i + 1) & t.mask
	}
}

// Valid reports whether the probe may still be used against t without
// re-probing.
func (p *Probe) Valid(t *Table) bool { return p.mut == t.mut }

// Put returns the entry for name, creating a facet-less entry if none
// exists.
func (t *Table) Put(name ndn.Name) *Entry {
	p := t.Probe(name)
	return t.PutProbed(&p, name)
}

// PutProbed is Put reusing an earlier probe: when the table is
// unchanged since the probe, a hit costs nothing and a miss inserts at
// the remembered slot without a second probe. The probe is updated to
// stay valid for the caller's next step.
func (t *Table) PutProbed(p *Probe, name ndn.Name) *Entry {
	if p.mut != t.mut {
		*p = t.Probe(name)
	}
	if p.Entry != nil {
		return p.Entry
	}
	if (t.used+1)*4 > len(t.buckets)*3 {
		t.grow()
		*p = t.Probe(name)
	}
	id, e := t.alloc(p.hash, name)
	t.buckets[p.slot] = id
	t.used++
	t.mut++
	p.Entry = e
	p.mut = t.mut
	return e
}

// alloc takes an entry from the free list or extends the arena by one
// chunk. Chunked storage keeps entry pointers stable forever.
func (t *Table) alloc(h uint64, name ndn.Name) (int32, *Entry) {
	var id int32
	if t.free != nilID {
		id = t.free
		t.free = t.at(id).csNext
	} else {
		if int(t.next) == len(t.chunks)*chunkSize {
			t.chunks = append(t.chunks, make([]Entry, chunkSize))
		}
		id = t.next
		t.next++
	}
	e := t.at(id)
	e.id = id
	e.hash = h
	e.name = name
	e.live = true
	e.csData = nil
	e.csPrev, e.csNext, e.lfuB = nilID, nilID, nilID
	return id, e
}

// ReleaseIfEmpty frees the entry once both facets are detached; an
// entry still carrying a facet is left alone. Freed entries keep their
// PIT slices for reuse and bump their generation so outstanding tokens
// die.
func (t *Table) ReleaseIfEmpty(e *Entry) {
	if !e.live || e.csData != nil || e.pit.Active {
		return
	}
	t.eraseSlotOf(e)
	e.live = false
	e.gen++
	e.name = ndn.Name{}
	e.csNext = t.free
	t.free = e.id
	t.used--
	t.mut++
}

// eraseSlotOf removes e's bucket slot using backward-shift deletion, so
// probe chains stay unbroken without tombstones.
func (t *Table) eraseSlotOf(e *Entry) {
	mask := t.mask
	i := uint32(e.hash) & mask
	for t.buckets[i] != e.id {
		i = (i + 1) & mask
	}
	j := i
	for {
		t.buckets[i] = nilID
		for {
			j = (j + 1) & mask
			id := t.buckets[j]
			if id == nilID {
				return
			}
			home := uint32(t.at(id).hash) & mask
			// Keep the entry at j when its home slot lies cyclically in
			// (i, j] — its probe chain does not cross the hole at i.
			if i <= j {
				if i < home && home <= j {
					continue
				}
			} else if home > i || home <= j {
				continue
			}
			t.buckets[i] = id
			break
		}
		i = j
	}
}

// grow doubles the bucket array and rehashes every live entry. Entry
// storage (the arena) is untouched, so pointers and tokens survive.
func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]int32, len(old)*2)
	t.mask = uint32(len(t.buckets) - 1)
	for i := range t.buckets {
		t.buckets[i] = nilID
	}
	for _, id := range old {
		if id == nilID {
			continue
		}
		i := uint32(t.at(id).hash) & t.mask
		for t.buckets[i] != nilID {
			i = (i + 1) & t.mask
		}
		t.buckets[i] = id
	}
	t.mut++
}

// TokenOf returns the entry's direct-access token: nonzero, unique for
// the entry's current lifetime, and detectably stale after the entry is
// released.
func (t *Table) TokenOf(e *Entry) uint64 {
	return uint64(e.gen)<<32 | uint64(uint32(e.id)+1)
}

// ByToken resolves a token to its live entry, or nil when the token is
// zero, malformed, or from a previous lifetime of the slot.
func (t *Table) ByToken(tok uint64) *Entry {
	if tok == 0 {
		return nil
	}
	idx := uint32(tok) - 1
	if int32(idx) < 0 || int32(idx) >= t.next {
		return nil
	}
	e := t.at(int32(idx))
	if !e.live || e.gen != uint32(tok>>32) {
		return nil
	}
	return e
}

// AttachCS installs the CS facet: payload, policy-list membership and —
// once the prefix index exists — its index slot. The entry must not
// already carry a CS facet.
func (t *Table) AttachCS(e *Entry, payload any) {
	e.csData = payload
	t.nCS++
	t.csLens = countLen(t.csLens, e.name.Len())
	if t.csOrdered {
		t.orderInsert(e)
	}
	t.policyInsert(e)
}

// DetachCS removes the CS facet; the entry itself survives (it may
// still carry a PIT facet — call ReleaseIfEmpty after).
func (t *Table) DetachCS(e *Entry) {
	if e.csData == nil {
		return
	}
	t.policyRemove(e)
	if t.csOrdered {
		t.orderRemove(e)
	}
	e.csData = nil
	t.csLens[e.name.Len()]--
	t.nCS--
}

// AttachPIT installs the PIT facet and returns it for field
// initialization. Face and nonce slices arrive length-reset but keep
// their backing arrays from the slot's previous lifetime.
//
// A pending entry outlives the interest that made it, whose name may be
// borrowed from a receive buffer (ndn.Framer). An entry with a CS facet
// already has a name that lasts: the cached Data's. One without copies
// its name into bytes the arena slot keeps, which grow only when a
// longer name comes, so steady-state PIT churn still allocates nothing.
func (t *Table) AttachPIT(e *Entry) *PITFacet {
	if e.csData == nil {
		for int(e.id) >= len(t.owned) {
			t.owned = append(t.owned, nil)
		}
		e.name = e.name.CloneInto(&t.owned[e.id])
	}
	pf := &e.pit
	pf.Active = true
	pf.Faces = pf.Faces[:0]
	pf.Nonces = pf.Nonces[:0]
	t.pitLens = countLen(t.pitLens, e.name.Len())
	t.nPIT++
	return pf
}

// countLen adds one facet with a k-component name to a per-length
// count, extending it to a depth not seen before.
func countLen(lens []int32, k int) []int32 {
	for len(lens) <= k {
		lens = append(lens, 0)
	}
	lens[k]++
	return lens
}

// DetachPIT removes the PIT facet; the entry itself survives (call
// ReleaseIfEmpty after).
func (t *Table) DetachPIT(e *Entry) {
	if !e.pit.Active {
		return
	}
	e.pit.Active = false
	e.pit.Faces = e.pit.Faces[:0]
	e.pit.Nonces = e.pit.Nonces[:0]
	e.pit.Trace, e.pit.Span = 0, 0
	t.pitLens[e.name.Len()]--
	t.nPIT--
}

// PITLenAt reports how many active PIT facets have names of exactly k
// components. Data satisfaction skips prefix lengths reporting zero
// without probing the table.
func (t *Table) PITLenAt(k int) int {
	if k >= len(t.pitLens) {
		return 0
	}
	return int(t.pitLens[k])
}

// ForEachPIT visits every active PIT facet in arena order. Arena order
// is a pure function of the operation history (no map iteration), but
// callers wanting name order must sort.
func (t *Table) ForEachPIT(fn func(*Entry)) {
	for id := int32(0); id < t.next; id++ {
		e := t.at(id)
		if e.live && e.pit.Active {
			fn(e)
		}
	}
}

// CSLongerThan reports whether any CS-faceted name has more than k
// components. Only such a name can match an interest for a k-component
// name it does not equal, so a false answer settles a prefix lookup
// without the sorted index.
func (t *Table) CSLongerThan(k int) bool {
	for k++; k < len(t.csLens); k++ {
		if t.csLens[k] != 0 {
			return true
		}
	}
	return false
}

// CSIndexLen returns the prefix-index length (== LenCS), whether or not
// the index has been built yet.
func (t *Table) CSIndexLen() int { return t.nCS }

// CSIndex returns the i-th CS-faceted entry in sorted name order.
func (t *Table) CSIndex(i int) *Entry {
	if !t.csOrdered {
		t.buildOrder()
	}
	return t.at(t.csOrder[i])
}

// CSLowerBound returns the first prefix-index position whose name
// compares >= prefix. Every name under the prefix forms a contiguous
// run starting there (component-wise order sorts a prefix immediately
// before its extensions).
func (t *Table) CSLowerBound(prefix ndn.Name) int {
	if !t.csOrdered {
		t.buildOrder()
	}
	lo, hi := 0, len(t.csOrder)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.at(t.csOrder[mid]).name.Compare(prefix) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// buildOrder creates the sorted prefix index from the arena: one pass
// collects the CS-faceted entries, one sort orders them. Names are
// unique, so the result does not depend on arena order or on when the
// build happens.
func (t *Table) buildOrder() {
	t.csOrder = make([]int32, 0, t.nCS)
	for id := int32(0); id < t.next; id++ {
		if e := t.at(id); e.live && e.csData != nil {
			t.csOrder = append(t.csOrder, id)
		}
	}
	slices.SortFunc(t.csOrder, func(a, b int32) int {
		return t.at(a).name.Compare(t.at(b).name)
	})
	t.csOrdered = true
}

// orderInsert places e into the sorted prefix index.
func (t *Table) orderInsert(e *Entry) {
	i := t.CSLowerBound(e.name)
	t.csOrder = append(t.csOrder, 0)
	copy(t.csOrder[i+1:], t.csOrder[i:])
	t.csOrder[i] = e.id
}

// orderRemove deletes e's prefix-index slot.
func (t *Table) orderRemove(e *Entry) {
	i := t.CSLowerBound(e.name)
	// The lower bound lands on the first equal name; names are unique,
	// so csOrder[i] is e.
	copy(t.csOrder[i:], t.csOrder[i+1:])
	t.csOrder = t.csOrder[:len(t.csOrder)-1]
}
