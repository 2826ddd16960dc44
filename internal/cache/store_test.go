package cache

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

func mkData(t *testing.T, name string) *ndn.Data {
	t.Helper()
	d, err := ndn.NewData(ndn.MustParseName(name), []byte("payload-"+name))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(-1, NewLRU()); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewStore(10, nil); err == nil {
		t.Error("bounded store without policy accepted")
	}
	if _, err := NewStore(0, nil); err != nil {
		t.Errorf("unlimited store without policy rejected: %v", err)
	}
}

func TestMustNewStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewStore did not panic on bad args")
		}
	}()
	MustNewStore(-1, nil)
}

func TestStoreInsertAndExact(t *testing.T) {
	s := MustNewStore(0, nil)
	d := mkData(t, "/a/b")
	s.Insert(d, 10*time.Millisecond, 5*time.Millisecond)
	entry, found := s.Exact(ndn.MustParseName("/a/b"), 20*time.Millisecond)
	if !found {
		t.Fatal("inserted entry not found")
	}
	if entry.FetchDelay != 5*time.Millisecond {
		t.Errorf("FetchDelay = %v, want 5ms", entry.FetchDelay)
	}
	if entry.InsertedAt != 10*time.Millisecond {
		t.Errorf("InsertedAt = %v, want 10ms", entry.InsertedAt)
	}
	if _, found := s.Exact(ndn.MustParseName("/a/c"), 0); found {
		t.Error("absent entry found")
	}
}

func TestStoreInsertKeepsThePacket(t *testing.T) {
	// Insert keeps the packet it is handed, copying nothing — on a new
	// entry and on a refresh alike. A refresh with another packet of the
	// same name swaps the pointer and keeps the Algorithm 1 counters;
	// the fetching hop's span context is the forwarder's to set.
	s := MustNewStore(0, nil)
	var first *Entry
	for i, d := range []*ndn.Data{mkData(t, "/x"), mkData(t, "/x")} { // insert, then refresh
		d.TraceID, d.SpanID, d.PITToken = 1, 2, 3
		entry := s.Insert(d, time.Duration(i), 0)
		if entry.Data != d {
			t.Errorf("insert %d: the store holds %p, not the packet it was handed (%p)", i, entry.Data, d)
		}
		if entry.Fetch != (span.Context{}) {
			t.Errorf("insert %d: Fetch = %+v, want zero: the store took the packet's hop stamps", i, entry.Fetch)
		}
		if i == 0 {
			first = entry
			entry.Counter, entry.Threshold, entry.ThresholdSet = 2, 5, true
			continue
		}
		if entry != first || !entry.ThresholdSet || entry.Counter != 2 || entry.Threshold != 5 {
			t.Errorf("refresh: entry %p (c=%d k=%d set=%t), want %p with c=2 k=5 kept",
				entry, entry.Counter, entry.Threshold, entry.ThresholdSet, first)
		}
	}
	if s.Len() != 1 || s.Insertions() != 1 {
		t.Errorf("Len %d, Insertions %d: want one entry, refreshed", s.Len(), s.Insertions())
	}
}

func TestStoreReinsertKeepsCounters(t *testing.T) {
	s := MustNewStore(0, nil)
	e1 := s.Insert(mkData(t, "/x"), 0, time.Millisecond)
	e1.ForwardCount = 7
	e1.Counter = 3
	e2 := s.Insert(mkData(t, "/x"), time.Second, 2*time.Millisecond)
	if e2.ForwardCount != 7 || e2.Counter != 3 {
		t.Errorf("re-insert reset counters: fwd=%d c=%d", e2.ForwardCount, e2.Counter)
	}
	if e2.FetchDelay != 2*time.Millisecond {
		t.Errorf("re-insert kept stale FetchDelay %v", e2.FetchDelay)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStoreCapacityEvictsLRU(t *testing.T) {
	s := MustNewStore(2, NewLRU())
	s.Insert(mkData(t, "/a"), 0, 0)
	s.Insert(mkData(t, "/b"), 0, 0)
	s.Touch(ndn.MustParseName("/a")) // /a recent, /b is LRU
	s.Insert(mkData(t, "/c"), 0, 0)
	if _, found := s.Exact(ndn.MustParseName("/b"), 0); found {
		t.Error("/b should have been evicted")
	}
	if _, found := s.Exact(ndn.MustParseName("/a"), 0); !found {
		t.Error("/a was evicted despite being recently used")
	}
	if s.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions())
	}
}

func TestStoreUnlimitedNeverEvicts(t *testing.T) {
	s := MustNewStore(0, nil)
	for i := 0; i < 1000; i++ {
		s.Insert(mkData(t, fmt.Sprintf("/obj/%d", i)), 0, 0)
	}
	if s.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", s.Len())
	}
	if s.Evictions() != 0 {
		t.Errorf("Evictions = %d, want 0", s.Evictions())
	}
}

func TestStoreFreshness(t *testing.T) {
	s := MustNewStore(0, nil)
	d := mkData(t, "/fresh")
	d.Freshness = 100 * time.Millisecond
	s.Insert(d, 0, 0)
	if _, found := s.Exact(ndn.MustParseName("/fresh"), 50*time.Millisecond); !found {
		t.Error("fresh entry not found")
	}
	if _, found := s.Exact(ndn.MustParseName("/fresh"), 150*time.Millisecond); found {
		t.Error("stale entry served")
	}
	if s.Len() != 0 {
		t.Error("stale entry not purged")
	}
}

func TestStoreMatchPrefix(t *testing.T) {
	s := MustNewStore(0, nil)
	s.Insert(mkData(t, "/cnn/news/b"), 0, 0)
	s.Insert(mkData(t, "/cnn/news/a"), 0, 0)
	entry, found := s.Match(ndn.NewInterest(ndn.MustParseName("/cnn/news"), 1), 0)
	if !found {
		t.Fatal("prefix match failed")
	}
	if got := entry.Data.Name.String(); got != "/cnn/news/a" {
		t.Errorf("match = %s, want deterministic smallest /cnn/news/a", got)
	}
}

func TestStoreMatchExactWins(t *testing.T) {
	s := MustNewStore(0, nil)
	s.Insert(mkData(t, "/cnn"), 0, 0)
	s.Insert(mkData(t, "/cnn/news"), 0, 0)
	entry, found := s.Match(ndn.NewInterest(ndn.MustParseName("/cnn"), 1), 0)
	if !found || entry.Data.Name.String() != "/cnn" {
		t.Errorf("exact match lost to prefix: %v %t", entry, found)
	}
}

func TestStoreMatchSkipsUnpredictableSuffix(t *testing.T) {
	ss, err := ndn.NewSharedSecret([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	name := ss.UnpredictableName(ndn.MustParseName("/alice/skype/0"), 9)
	d, err := ndn.NewData(name, []byte("frame"))
	if err != nil {
		t.Fatal(err)
	}
	s := MustNewStore(0, nil)
	s.Insert(d, 0, 0)
	if _, found := s.Match(ndn.NewInterest(ndn.MustParseName("/alice/skype"), 1), 0); found {
		t.Error("rand-suffixed content matched a prefix interest")
	}
	if _, found := s.Match(ndn.NewInterest(name, 2), 0); !found {
		t.Error("exact interest for rand-suffixed content missed")
	}
}

func TestStoreMatchSkipsStale(t *testing.T) {
	s := MustNewStore(0, nil)
	staleD := mkData(t, "/p/stale")
	staleD.Freshness = 10 * time.Millisecond
	s.Insert(staleD, 0, 0)
	s.Insert(mkData(t, "/p/valid"), 0, 0)
	entry, found := s.Match(ndn.NewInterest(ndn.MustParseName("/p"), 1), time.Second)
	if !found || entry.Data.Name.String() != "/p/valid" {
		t.Errorf("Match = %v,%t; want /p/valid", entry, found)
	}
}

func TestStorePrivateMarking(t *testing.T) {
	s := MustNewStore(0, nil)
	priv := mkData(t, "/bob/private/doc")
	e := s.Insert(priv, 0, 0)
	if !e.Private {
		t.Error("producer-marked private content not flagged in cache")
	}
	pub := mkData(t, "/bob/doc")
	if e := s.Insert(pub, 0, 0); e.Private {
		t.Error("public content flagged private")
	}
}

func TestStoreRemoveAndClear(t *testing.T) {
	s := MustNewStore(0, nil)
	s.Insert(mkData(t, "/a"), 0, 0)
	s.Insert(mkData(t, "/b"), 0, 0)
	if !s.Remove(ndn.MustParseName("/a"), time.Second) {
		t.Error("Remove of present entry returned false")
	}
	if s.Remove(ndn.MustParseName("/a"), time.Second) {
		t.Error("double Remove returned true")
	}
	s.Clear(2 * time.Second)
	if s.Len() != 0 {
		t.Errorf("Len after Clear = %d", s.Len())
	}
	if names := s.Names(); len(names) != 0 {
		t.Errorf("Names after Clear = %v", names)
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s := MustNewStore(0, nil)
	for _, n := range []string{"/c", "/a", "/b/x", "/b"} {
		s.Insert(mkData(t, n), 0, 0)
	}
	names := s.Names()
	want := []string{"/a", "/b", "/b/x", "/c"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i, n := range names {
		if n.String() != want[i] {
			t.Errorf("Names[%d] = %s, want %s", i, n, want[i])
		}
	}
}

func TestStoreIsStaleZeroFreshness(t *testing.T) {
	e := &Entry{Data: &ndn.Data{}}
	if e.IsStale(time.Hour) {
		t.Error("entry without freshness bound went stale")
	}
}

func TestNewPolicyByName(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "lfu"} {
		p, ok := NewPolicy(name)
		if !ok || p.Name() != name {
			t.Errorf("NewPolicy(%s) = %v, %t", name, p, ok)
		}
	}
	if _, ok := NewPolicy("marp"); ok {
		t.Error("unknown policy accepted")
	}
}

// Property: a bounded store never exceeds its capacity under arbitrary
// insert sequences, with every policy.
func TestStoreCapacityInvariantProperty(t *testing.T) {
	for _, policyName := range []string{"lru", "fifo", "lfu"} {
		policyName := policyName
		t.Run(policyName, func(t *testing.T) {
			f := func(ids []uint8) bool {
				policy, _ := NewPolicy(policyName)
				s := MustNewStore(4, policy)
				for step, id := range ids {
					d, err := ndn.NewData(
						ndn.MustParseName(fmt.Sprintf("/obj/%d", id)),
						[]byte{id},
					)
					if err != nil {
						return false
					}
					s.Insert(d, time.Duration(step), 0)
					if s.Len() > 4 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: Exact finds precisely what was inserted and not evicted.
func TestStoreExactAfterInsertProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		s := MustNewStore(0, nil)
		seen := make(map[uint8]bool)
		for _, id := range ids {
			d, err := ndn.NewData(ndn.MustParseName(fmt.Sprintf("/o/%d", id)), []byte{1})
			if err != nil {
				return false
			}
			s.Insert(d, 0, 0)
			seen[id] = true
		}
		if s.Len() != len(seen) {
			return false
		}
		for id := range seen {
			if _, found := s.Exact(ndn.MustParseName(fmt.Sprintf("/o/%d", id)), 0); !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNameIndexUnder(t *testing.T) {
	ix := newNameIndex()
	for _, n := range []string{"/a/b/c", "/a/b/d", "/a/x", "/z"} {
		ix.insert(ndn.MustParseName(n))
	}
	under := ix.under(ndn.MustParseName("/a/b"))
	if len(under) != 2 || under[0].String() != "/a/b/c" || under[1].String() != "/a/b/d" {
		t.Errorf("under(/a/b) = %v", under)
	}
	if got := ix.under(ndn.MustParseName("/nope")); got != nil {
		t.Errorf("under(/nope) = %v, want nil", got)
	}
	ix.remove(ndn.MustParseName("/a/b/c"))
	if under := ix.under(ndn.MustParseName("/a/b")); len(under) != 1 {
		t.Errorf("after remove: %v", under)
	}
	ix.remove(ndn.MustParseName("/ghost")) // must not panic
}

func TestStoreIsStaleBoundary(t *testing.T) {
	freshness := 10 * time.Millisecond
	e := &Entry{Data: &ndn.Data{Freshness: freshness}, InsertedAt: time.Millisecond}
	if e.IsStale(time.Millisecond + freshness - time.Nanosecond) {
		t.Error("entry stale one tick before the freshness bound")
	}
	// The bound itself is stale: freshness grants [InsertedAt,
	// InsertedAt+Freshness) of validity, closed-open.
	if !e.IsStale(time.Millisecond + freshness) {
		t.Error("entry fresh exactly at the freshness bound")
	}
	if !e.IsStale(time.Millisecond + freshness + time.Nanosecond) {
		t.Error("entry fresh past the freshness bound")
	}
}

func TestStoreRemoveFiresEvictionHookAndClosesSpan(t *testing.T) {
	s := MustNewStore(0, nil)
	spans := span.NewTracer(1)
	s.Attach(telemetry.NewTap(telemetry.Hooks{Tracer: spans}, "n1"))
	var evicted []string
	s.SetEvictionHook(func(e *Entry) { evicted = append(evicted, e.Data.Name.String()) })
	s.Insert(mkData(t, "/a"), time.Millisecond, 0)
	s.Insert(mkData(t, "/b"), 2*time.Millisecond, 0)

	if !s.Remove(ndn.MustParseName("/a"), 5*time.Millisecond) {
		t.Fatal("Remove of present entry returned false")
	}
	if len(evicted) != 1 || evicted[0] != "/a" {
		t.Fatalf("eviction hook saw %v, want [/a]", evicted)
	}
	var closed []span.Record
	for _, r := range spans.Records() {
		if r.Action != "" {
			closed = append(closed, r)
		}
	}
	if len(closed) != 1 {
		t.Fatalf("closed spans = %d, want 1 (only /a's residency ended)", len(closed))
	}
	r := closed[0]
	if r.Kind != span.KindResidency || r.Name != "/a" || r.Action != string(ReasonRemove) {
		t.Errorf("residency span = %+v, want kind=%s name=/a action=%s", r, span.KindResidency, ReasonRemove)
	}
	if r.Start != int64(time.Millisecond) || r.End != int64(5*time.Millisecond) {
		t.Errorf("residency span [%d, %d], want [insert, remove] virtual times", r.Start, r.End)
	}
}

func TestStoreClearFiresEvictionHookAndClosesSpans(t *testing.T) {
	s := MustNewStore(0, nil)
	spans := span.NewTracer(1)
	s.Attach(telemetry.NewTap(telemetry.Hooks{Tracer: spans}, "n1"))
	var evicted []string
	s.SetEvictionHook(func(e *Entry) { evicted = append(evicted, e.Data.Name.String()) })
	for _, n := range []string{"/c", "/a", "/b"} {
		s.Insert(mkData(t, n), time.Millisecond, 0)
	}
	s.Clear(7 * time.Millisecond)
	// The hook fires once per entry and the walk follows the sorted name
	// index, so the hook order is deterministic regardless of insertion
	// order.
	want := []string{"/a", "/b", "/c"}
	if len(evicted) != len(want) {
		t.Fatalf("eviction hook saw %v, want %v", evicted, want)
	}
	for i, name := range want {
		if evicted[i] != name {
			t.Errorf("hook order[%d] = %s, want %s", i, evicted[i], name)
		}
	}
	// Records sit in span-creation (insertion) order; all three must be
	// closed with the clear reason at the Clear time.
	recs := spans.Records()
	if len(recs) != 3 {
		t.Fatalf("spans = %d, want 3", len(recs))
	}
	wantByID := []string{"/c", "/a", "/b"}
	for i, r := range recs {
		if r.Name != wantByID[i] || r.Action != string(ReasonClear) || r.End != int64(7*time.Millisecond) {
			t.Errorf("span[%d] = %+v, want name=%s action=%s end=7ms", i, r, wantByID[i], ReasonClear)
		}
	}
}

func TestStoreFinishSpansLeavesResidentAction(t *testing.T) {
	s := MustNewStore(0, nil)
	spans := span.NewTracer(1)
	s.Attach(telemetry.NewTap(telemetry.Hooks{Tracer: spans}, "n1"))
	s.Insert(mkData(t, "/keep"), time.Millisecond, 0)
	s.FinishSpans(9 * time.Millisecond)
	recs := spans.Records()
	if len(recs) != 1 || recs[0].Action != "resident" {
		t.Fatalf("spans after FinishSpans = %+v, want one 'resident' span", recs)
	}
	// A later Remove must not double-close the span.
	if !s.Remove(ndn.MustParseName("/keep"), 10*time.Millisecond) {
		t.Fatal("Remove after FinishSpans returned false")
	}
	if got := len(spans.Records()); got != 1 {
		t.Errorf("spans after Remove = %d, want still 1 (no double close)", got)
	}
}
