package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
)

// This file is the differential property test for the composite-table
// store: refStore below is a faithful port of the pre-PCCT Store — a
// map[string] entry table, per-hash buckets for wire probes, the trie
// index for prefix matching and container/list eviction policies — and
// the test drives both implementations through identical randomized
// operation sequences, demanding identical observable behavior: return
// values, lengths, hit/miss counts, and the full insert/evict trace
// event stream (which pins eviction victims, stale-purge order and
// Clear order). Run with -race in CI like every other test.

// --- reference policies (the old string-keyed container/list scheme) ---

type refPolicy interface {
	onInsert(key string)
	onAccess(key string)
	onRemove(key string)
	victim() (string, bool)
}

type refLRU struct {
	order *list.List
	elems map[string]*list.Element
}

func newRefLRU() *refLRU { return &refLRU{order: list.New(), elems: make(map[string]*list.Element)} }

func (l *refLRU) onInsert(key string) {
	if e, found := l.elems[key]; found {
		l.order.MoveToFront(e)
		return
	}
	l.elems[key] = l.order.PushFront(key)
}

func (l *refLRU) onAccess(key string) {
	if e, found := l.elems[key]; found {
		l.order.MoveToFront(e)
	}
}

func (l *refLRU) onRemove(key string) {
	if e, found := l.elems[key]; found {
		l.order.Remove(e)
		delete(l.elems, key)
	}
}

func (l *refLRU) victim() (string, bool) {
	back := l.order.Back()
	if back == nil {
		return "", false
	}
	return back.Value.(string), true
}

type refFIFO struct {
	order *list.List
	elems map[string]*list.Element
}

func newRefFIFO() *refFIFO {
	return &refFIFO{order: list.New(), elems: make(map[string]*list.Element)}
}

func (f *refFIFO) onInsert(key string) {
	if _, found := f.elems[key]; found {
		return
	}
	f.elems[key] = f.order.PushFront(key)
}

func (f *refFIFO) onAccess(string) {}

func (f *refFIFO) onRemove(key string) {
	if e, found := f.elems[key]; found {
		f.order.Remove(e)
		delete(f.elems, key)
	}
}

func (f *refFIFO) victim() (string, bool) {
	back := f.order.Back()
	if back == nil {
		return "", false
	}
	return back.Value.(string), true
}

type refLFU struct {
	freqs   *list.List // of *refLFUBucket, ascending frequency
	entries map[string]*refLFUEntry
}

type refLFUBucket struct {
	freq  uint64
	order *list.List // of string keys; front = most recent
}

type refLFUEntry struct {
	bucketElem *list.Element
	keyElem    *list.Element
}

func newRefLFU() *refLFU { return &refLFU{freqs: list.New(), entries: make(map[string]*refLFUEntry)} }

func (l *refLFU) onInsert(key string) {
	if _, found := l.entries[key]; found {
		l.onAccess(key)
		return
	}
	front := l.freqs.Front()
	var bucketElem *list.Element
	if front != nil && front.Value.(*refLFUBucket).freq == 1 {
		bucketElem = front
	}
	if bucketElem == nil {
		bucketElem = l.freqs.PushFront(&refLFUBucket{freq: 1, order: list.New()})
	}
	bucket := bucketElem.Value.(*refLFUBucket)
	l.entries[key] = &refLFUEntry{bucketElem: bucketElem, keyElem: bucket.order.PushFront(key)}
}

func (l *refLFU) onAccess(key string) {
	entry, found := l.entries[key]
	if !found {
		return
	}
	bucket := entry.bucketElem.Value.(*refLFUBucket)
	nextFreq := bucket.freq + 1
	var nextElem *list.Element
	if n := entry.bucketElem.Next(); n != nil && n.Value.(*refLFUBucket).freq == nextFreq {
		nextElem = n
	}
	if nextElem == nil {
		nextElem = l.freqs.InsertAfter(&refLFUBucket{freq: nextFreq, order: list.New()}, entry.bucketElem)
	}
	bucket.order.Remove(entry.keyElem)
	if bucket.order.Len() == 0 {
		l.freqs.Remove(entry.bucketElem)
	}
	entry.bucketElem = nextElem
	entry.keyElem = nextElem.Value.(*refLFUBucket).order.PushFront(key)
}

func (l *refLFU) onRemove(key string) {
	entry, found := l.entries[key]
	if !found {
		return
	}
	bucket := entry.bucketElem.Value.(*refLFUBucket)
	bucket.order.Remove(entry.keyElem)
	if bucket.order.Len() == 0 {
		l.freqs.Remove(entry.bucketElem)
	}
	delete(l.entries, key)
}

func (l *refLFU) victim() (string, bool) {
	front := l.freqs.Front()
	if front == nil {
		return "", false
	}
	bucket := front.Value.(*refLFUBucket)
	if bucket.order.Len() == 0 {
		return "", false
	}
	return bucket.order.Back().Value.(string), true
}

func newRefPolicy(name string) refPolicy {
	switch name {
	case "fifo":
		return newRefFIFO()
	case "lfu":
		return newRefLFU()
	default:
		return newRefLRU()
	}
}

// --- reference store (the old map-based Store) ---

type refEntry struct {
	data       *ndn.Data
	insertedAt time.Duration
}

func (e *refEntry) isStale(now time.Duration) bool {
	return e.data.Freshness > 0 && now-e.insertedAt >= e.data.Freshness
}

type refStore struct {
	capacity int
	policy   refPolicy
	entries  map[string]*refEntry
	byHash   map[uint64][]*refEntry
	index    *nameIndex
	sink     telemetry.Sink
	hits     uint64
	misses   uint64
}

func newRefStore(capacity int, policyName string, sink telemetry.Sink) *refStore {
	return &refStore{
		capacity: capacity,
		policy:   newRefPolicy(policyName),
		entries:  make(map[string]*refEntry),
		byHash:   make(map[uint64][]*refEntry),
		index:    newNameIndex(),
		sink:     sink,
	}
}

func (s *refStore) insert(data *ndn.Data, now time.Duration) {
	key := data.Name.String()
	if existing, found := s.entries[key]; found {
		existing.data = data.Clone()
		existing.insertedAt = now
		s.policy.onInsert(key)
		s.sink.Emit(telemetry.Event{At: int64(now), Type: telemetry.EvCSInsert, Name: key, Action: "refresh"})
		return
	}
	for s.capacity > 0 && len(s.entries) >= s.capacity {
		victim, found := s.policy.victim()
		if !found {
			break
		}
		s.removeKey(victim, now, ReasonCapacity)
	}
	entry := &refEntry{data: data.Clone(), insertedAt: now}
	s.entries[key] = entry
	h := data.Name.Hash()
	s.byHash[h] = append(s.byHash[h], entry)
	s.index.insert(data.Name)
	s.policy.onInsert(key)
	s.sink.Emit(telemetry.Event{At: int64(now), Type: telemetry.EvCSInsert, Name: key, Action: "new"})
}

func (s *refStore) lookupExact(name ndn.Name, now time.Duration) (*refEntry, bool) {
	entry, found := s.entries[name.String()]
	if !found {
		return nil, false
	}
	if entry.isStale(now) {
		s.removeKey(name.String(), now, ReasonStale)
		return nil, false
	}
	return entry, true
}

func (s *refStore) exact(name ndn.Name, now time.Duration) (*refEntry, bool) {
	entry, found := s.lookupExact(name, now)
	s.countLookup(found)
	return entry, found
}

func (s *refStore) probe(name ndn.Name, now time.Duration) (*refEntry, bool) {
	for _, entry := range s.byHash[name.Hash()] {
		if !name.Equal(entry.data.Name) {
			continue
		}
		if entry.isStale(now) {
			s.removeKey(entry.data.Name.String(), now, ReasonStale)
			s.countLookup(false)
			return nil, false
		}
		s.countLookup(true)
		return entry, true
	}
	s.countLookup(false)
	return nil, false
}

func (s *refStore) match(interest *ndn.Interest, now time.Duration) (*refEntry, bool) {
	if entry, found := s.lookupExact(interest.Name, now); found {
		s.countLookup(true)
		return entry, true
	}
	for _, full := range s.index.under(interest.Name) {
		entry, found := s.entries[full.String()]
		if !found {
			continue
		}
		if entry.isStale(now) {
			s.removeKey(full.String(), now, ReasonStale)
			continue
		}
		if entry.data.Matches(interest) {
			s.countLookup(true)
			return entry, true
		}
	}
	s.countLookup(false)
	return nil, false
}

func (s *refStore) countLookup(hit bool) {
	if hit {
		s.hits++
	} else {
		s.misses++
	}
}

func (s *refStore) touch(name ndn.Name) { s.policy.onAccess(name.String()) }

func (s *refStore) remove(name ndn.Name, now time.Duration) bool {
	if _, found := s.entries[name.String()]; !found {
		return false
	}
	s.removeKey(name.String(), now, ReasonRemove)
	return true
}

func (s *refStore) clear(now time.Duration) {
	for _, name := range s.index.all() {
		s.removeKey(name.String(), now, ReasonClear)
	}
}

func (s *refStore) names() []ndn.Name { return s.index.all() }

func (s *refStore) removeKey(key string, now time.Duration, reason RemoveReason) {
	entry, found := s.entries[key]
	if !found {
		return
	}
	delete(s.entries, key)
	h := entry.data.Name.Hash()
	bucket := s.byHash[h]
	for i, e := range bucket {
		if e == entry {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.byHash, h)
	} else {
		s.byHash[h] = bucket
	}
	s.index.remove(entry.data.Name)
	s.policy.onRemove(key)
	s.sink.Emit(telemetry.Event{At: int64(now), Type: telemetry.EvCSEvict, Name: key, Action: string(reason)})
}

// --- the differential driver ---

// eventLog records the insert/evict stream; comparing two logs pins
// victim selection, stale-purge order and Clear order, not just end
// state.
type eventLog struct {
	events []string
}

func (l *eventLog) Emit(ev telemetry.Event) {
	l.events = append(l.events, fmt.Sprintf("%d %s %s %s", ev.At, ev.Type, ev.Name, ev.Action))
}

// diffOps is the length of one differential sequence.
const diffOps = 6000

// diffShape is one family of operation sequences. The table sorts its
// prefix index only when an operation first needs name order, so the
// sequences differ in when that happens: ops before orderedFrom need no
// order (a prefix Match becomes a full-name Match; Names and Clear are
// skipped), and on the one-depth universe nothing before it can build
// the index at all.
type diffShape struct {
	name        string
	universe    []diffObject
	orderedFrom int
}

func TestStoreDifferentialAgainstMapReference(t *testing.T) {
	mixed, flat := buildDiffUniverse(), buildFlatDiffUniverse()
	shapes := []diffShape{
		{"mixed depths, ordered ops throughout", mixed, 0},
		{"mixed depths, first ordered op late", mixed, 4500},
		{"mixed depths, no ordered op", mixed, diffOps},
		{"one depth, first ordered op late", flat, 4500},
		{"one depth, no ordered op", flat, diffOps},
	}
	for _, policy := range []string{"lru", "fifo", "lfu"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			for _, shape := range shapes {
				for seed := int64(1); seed <= 4; seed++ {
					runDifferential(t, policy, seed, shape)
				}
			}
		})
	}
}

type diffObject struct {
	data *ndn.Data
	wire []byte // an encoded Interest for the name, for wire probes
}

// buildDiffUniverse returns a name universe with shared prefixes,
// varying depth, unpredictable suffixes and a mix of freshness bounds
// (0 = never stale), so every Match/Exact/stale code path is exercised.
func buildDiffUniverse() []diffObject {
	var objects []diffObject
	add := func(uri string, freshness time.Duration) {
		name := ndn.MustParseName(uri)
		d, err := ndn.NewData(name, []byte("payload-"+uri))
		if err != nil {
			panic(err)
		}
		d.Freshness = freshness
		objects = append(objects, diffObject{data: d, wire: ndn.EncodeInterest(ndn.NewInterest(name, 0))})
	}
	freshCycle := []time.Duration{0, 5 * time.Millisecond, 40 * time.Millisecond}
	i := 0
	for _, site := range []string{"/cnn", "/cnn/news", "/bbc", "/bbc/sport/football", "/youtube/v"} {
		for item := 0; item < 6; item++ {
			add(fmt.Sprintf("%s/item%d", site, item), freshCycle[i%len(freshCycle)])
			i++
		}
	}
	// Deeper names under existing prefixes, so prefix matches see runs.
	add("/cnn/news/item0/seg0", 0)
	add("/cnn/news/item0/seg1", 5*time.Millisecond)
	add("/bbc/sport/football/live/now", 0)
	return objects
}

// buildFlatDiffUniverse returns names of one depth only: no name is a
// proper prefix of another, so no exact-name lookup can ever need the
// sorted index.
func buildFlatDiffUniverse() []diffObject {
	var objects []diffObject
	freshCycle := []time.Duration{0, 5 * time.Millisecond, 40 * time.Millisecond}
	for i := 0; i < 33; i++ {
		name := ndn.MustParseName(fmt.Sprintf("/flat/item%d", i))
		d, err := ndn.NewData(name, []byte("payload"))
		if err != nil {
			panic(err)
		}
		d.Freshness = freshCycle[i%len(freshCycle)]
		objects = append(objects, diffObject{data: d, wire: ndn.EncodeInterest(ndn.NewInterest(name, 0))})
	}
	return objects
}

func runDifferential(t *testing.T, policy string, seed int64, shape diffShape) {
	t.Helper()
	universe := shape.universe
	label := policy + ", " + shape.name
	newLog, refLog := &eventLog{}, &eventLog{}
	p, ok := NewPolicy(policy)
	if !ok {
		t.Fatalf("unknown policy %s", policy)
	}
	s := MustNewStore(8, p)
	s.Attach(telemetry.NewTap(telemetry.Hooks{Sink: newLog}, ""))
	ref := newRefStore(8, policy, refLog)

	rng := rand.New(rand.NewSource(seed))
	now := time.Duration(0)
	for op := 0; op < diffOps; op++ {
		ordered := op >= shape.orderedFrom
		now += time.Duration(rng.Intn(3)) * time.Millisecond
		obj := universe[rng.Intn(len(universe))]
		switch rng.Intn(10) {
		case 0, 1, 2: // insert
			s.Insert(obj.data, now, time.Millisecond)
			ref.insert(obj.data, now)
		case 3, 4: // exact
			e1, f1 := s.Exact(obj.data.Name, now)
			e2, f2 := ref.exact(obj.data.Name, now)
			if f1 != f2 {
				t.Fatalf("[%s seed=%d op=%d] Exact(%s) found: new=%t ref=%t", label, seed, op, obj.data.Name, f1, f2)
			}
			if f1 && (e1.InsertedAt != e2.insertedAt || !e1.Data.Name.Equal(e2.data.Name)) {
				t.Fatalf("[%s seed=%d op=%d] Exact(%s) entries diverge", label, seed, op, obj.data.Name)
			}
		case 5: // probe of a name borrowed from the wire
			v, err := ndn.InterestNameView(obj.wire)
			if err != nil {
				t.Fatal(err)
			}
			_, f1, _ := s.ProbeView(v, now)
			_, f2 := ref.probe(v, now)
			if f1 != f2 {
				t.Fatalf("[%s seed=%d op=%d] ProbeView(%s) found: new=%t ref=%t", label, seed, op, obj.data.Name, f1, f2)
			}
		case 6: // prefix match
			prefix := obj.data.Name
			if ordered {
				prefix = prefix.Prefix(1 + rng.Intn(prefix.Len()))
			}
			interest := ndn.NewInterest(prefix, uint64(op))
			e1, f1 := s.Match(interest, now)
			e2, f2 := ref.match(interest, now)
			if f1 != f2 {
				t.Fatalf("[%s seed=%d op=%d] Match(%s) found: new=%t ref=%t", label, seed, op, prefix, f1, f2)
			}
			if f1 && !e1.Data.Name.Equal(e2.data.Name) {
				t.Fatalf("[%s seed=%d op=%d] Match(%s): new=%s ref=%s", label, seed, op, prefix, e1.Data.Name, e2.data.Name)
			}
		case 7: // touch
			s.Touch(obj.data.Name)
			ref.touch(obj.data.Name)
		case 8: // remove
			r1 := s.Remove(obj.data.Name, now)
			r2 := ref.remove(obj.data.Name, now)
			if r1 != r2 {
				t.Fatalf("[%s seed=%d op=%d] Remove(%s): new=%t ref=%t", label, seed, op, obj.data.Name, r1, r2)
			}
		case 9:
			if !ordered {
				break
			}
			if rng.Intn(50) == 0 { // rare full clear
				s.Clear(now)
				ref.clear(now)
			} else { // names snapshot
				n1, n2 := s.Names(), ref.names()
				if len(n1) != len(n2) {
					t.Fatalf("[%s seed=%d op=%d] Names: %d vs %d", label, seed, op, len(n1), len(n2))
				}
				for i := range n1 {
					if !n1[i].Equal(n2[i]) {
						t.Fatalf("[%s seed=%d op=%d] Names[%d]: %s vs %s", label, seed, op, i, n1[i], n2[i])
					}
				}
			}
		}
		if s.Len() != len(ref.entries) {
			t.Fatalf("[%s seed=%d op=%d] Len: new=%d ref=%d", label, seed, op, s.Len(), len(ref.entries))
		}
		if len(newLog.events) != len(refLog.events) {
			t.Fatalf("[%s seed=%d op=%d] event streams diverge in length: new=%d ref=%d\nnew tail: %v\nref tail: %v",
				label, seed, op, len(newLog.events), len(refLog.events),
				tailOf(newLog.events), tailOf(refLog.events))
		}
	}
	for i := range newLog.events {
		if newLog.events[i] != refLog.events[i] {
			t.Fatalf("[%s seed=%d] event %d diverges:\nnew: %s\nref: %s", label, seed, i, newLog.events[i], refLog.events[i])
		}
	}
	if s.Hits() != ref.hits || s.Misses() != ref.misses {
		t.Fatalf("[%s seed=%d] counters diverge: hits new=%d ref=%d, misses new=%d ref=%d",
			label, seed, s.Hits(), ref.hits, s.Misses(), ref.misses)
	}
}

func tailOf(events []string) []string {
	if len(events) > 5 {
		return events[len(events)-5:]
	}
	return events
}
