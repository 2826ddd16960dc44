package tiered

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
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

// ramStore builds a small tiered store over a deterministic disk model:
// a RAM front of capacity ramCap, unlimited disk.
func ramStore(t *testing.T, ramCap int) *cache.Store {
	t.Helper()
	return tieredStore(t, ramCap, NewDiskModel(DiskModelConfig{}))
}

func tieredStore(t testing.TB, ramCap int, second cache.SecondTier) *cache.Store {
	t.Helper()
	s, err := cache.NewTieredStore(ramCap, cache.NewLRU(), second)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The serving tier of one lookup, as the forwarder learns it.
const (
	tierNone = "none"
	tierRAM  = "ram"
	tierDisk = "disk"
)

// lookup runs the forwarder's lookup sequence — one probe, the RAM
// front, then the second tier — and reports the serving tier and its
// modeled cost from the calls' return values.
func lookup(s *cache.Store, interest *ndn.Interest, now time.Duration) (*cache.Entry, string, time.Duration) {
	probe := s.ProbeName(interest.Name)
	if e, found := s.MatchProbed(interest, &probe, now); found {
		return e, tierRAM, 0
	}
	if e, cost, found := s.MatchSecond(interest, now); found {
		return e, tierDisk, cost
	}
	return nil, tierNone, 0
}

func lookupName(s *cache.Store, name ndn.Name, now time.Duration) (*cache.Entry, string, time.Duration) {
	return lookup(s, ndn.NewInterest(name, 1), now)
}

func TestNewValidation(t *testing.T) {
	second := NewDiskModel(DiskModelConfig{})
	if _, err := cache.NewTieredStore(0, cache.NewLRU(), second); err == nil {
		t.Error("zero RAM capacity accepted")
	}
	if _, err := cache.NewTieredStore(8, cache.NewLRU(), nil); err == nil {
		t.Error("missing second tier accepted")
	}
	path := filepath.Join(t.TempDir(), "cs.log")
	if _, err := OpenFileTier(FileTierConfig{Path: path, Capacity: -5}); err == nil {
		t.Error("negative file-tier capacity accepted")
	}
}

func TestDemotionAndPromotion(t *testing.T) {
	s := ramStore(t, 2)
	a, b, c := mkData(t, "/t/a"), mkData(t, "/t/b"), mkData(t, "/t/c")
	s.Insert(a, 1*time.Millisecond, 0)
	s.Insert(b, 2*time.Millisecond, 0)
	s.Insert(c, 3*time.Millisecond, 0) // LRU evicts /t/a → demoted to disk

	if got := s.RAMLen(); got != 2 {
		t.Fatalf("RAMLen = %d, want 2", got)
	}
	if got := s.SecondLen(); got != 1 {
		t.Fatalf("SecondLen = %d, want 1", got)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 (no object lost to demotion)", got)
	}
	if got := s.Demotions(); got != 1 {
		t.Errorf("Demotions = %d, want 1", got)
	}

	// A lookup of the demoted object: disk hit with a modeled cost, then
	// promotion back into RAM (evicting the LRU victim /t/b).
	e, tier, cost := lookupName(s, a.Name, 4*time.Millisecond)
	if e == nil {
		t.Fatal("demoted entry not found")
	}
	if e.InsertedAt != 1*time.Millisecond {
		t.Errorf("promotion reset InsertedAt to %v, want original 1ms", e.InsertedAt)
	}
	if tier != tierDisk {
		t.Fatalf("serving tier = %v, want disk", tier)
	}
	if cost <= 0 {
		t.Errorf("disk hit cost = %v, want > 0", cost)
	}
	if got := s.Promotions(); got != 1 {
		t.Errorf("Promotions = %d, want 1", got)
	}
	if got := s.Demotions(); got != 2 {
		t.Errorf("Demotions = %d, want 2 (promotion displaced the LRU victim)", got)
	}

	// The promoted object now serves from RAM at zero cost.
	e, tier, cost = lookupName(s, a.Name, 5*time.Millisecond)
	if e == nil {
		t.Fatal("promoted entry not found")
	}
	if tier != tierRAM || cost != 0 {
		t.Errorf("lookup after promotion = %v at %v, want RAM at zero cost", tier, cost)
	}

	// A miss reports no tier.
	e, tier, _ = lookupName(s, ndn.MustParseName("/t/absent"), 5*time.Millisecond)
	if e != nil {
		t.Fatal("absent entry found")
	}
	if tier != tierNone {
		t.Errorf("lookup after miss = %v, want none", tier)
	}

	if hits, misses := s.Hits(), s.Misses(); hits != 2 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if ram, disk := s.Hits()-s.DiskHits(), s.DiskHits(); ram != 1 || disk != 1 {
		t.Errorf("ram/disk hits = %d/%d, want 1/1", ram, disk)
	}
}

func TestProbeViewIsPureProbe(t *testing.T) {
	s := ramStore(t, 1)
	a, b := mkData(t, "/t/a"), mkData(t, "/t/b")
	s.Insert(a, 0, 0)
	s.Insert(b, time.Millisecond, 0) // /t/a demoted

	wire := ndn.EncodeInterest(ndn.NewInterest(a.Name, 0))
	v, err := ndn.InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 2; probe++ {
		if _, found, _ := s.ProbeView(v, 2*time.Millisecond); !found {
			t.Fatalf("probe %d: disk-resident entry not visible to the wire probe", probe)
		}
		// Still a disk hit on the second probe: the wire probe must not
		// have promoted.
		if got := s.DiskHits(); got != uint64(probe+1) {
			t.Fatalf("probe %d: disk hits = %d, want %d (probe must not promote)", probe, got, probe+1)
		}
	}
	if got := s.Promotions(); got != 0 {
		t.Errorf("Promotions after wire probes = %d, want 0", got)
	}

	// RAM-resident entry probes as a RAM hit.
	bw := ndn.EncodeInterest(ndn.NewInterest(b.Name, 0))
	bv, err := ndn.InterestNameView(bw)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.ProbeView(bv, 2*time.Millisecond); !found {
		t.Fatal("RAM-resident entry not visible to the wire probe")
	}
	if hits, disk := s.Hits(), s.DiskHits(); hits != 3 || disk != 2 {
		t.Errorf("hits/disk hits = %d/%d, want 3/2 (third probe served from RAM)", hits, disk)
	}
}

func TestMatchPrefixServesRAMOnly(t *testing.T) {
	s := ramStore(t, 1)
	a, b := mkData(t, "/p/obj/1"), mkData(t, "/p/obj/2")
	s.Insert(a, 0, 0)
	s.Insert(b, time.Millisecond, 0) // /p/obj/1 demoted

	// A prefix interest can only be answered by the RAM front.
	prefix := ndn.NewInterest(ndn.MustParseName("/p/obj"), 1)
	e, found := s.Match(prefix, 2*time.Millisecond)
	if !found {
		t.Fatal("prefix interest unmatched despite RAM-resident candidate")
	}
	if got := e.Data.Name.String(); got != b.Name.String() {
		t.Errorf("prefix match = %s, want RAM-resident %s", got, b.Name.String())
	}

	// An exact interest reaches the disk tier and promotes.
	exact := ndn.NewInterest(a.Name, 2)
	e, tier, _ := lookup(s, exact, 3*time.Millisecond)
	if e == nil {
		t.Fatal("exact interest missed disk-resident entry")
	}
	if tier != tierDisk {
		t.Errorf("tier = %v, want disk", tier)
	}
	if got := s.Promotions(); got != 1 {
		t.Errorf("Promotions = %d, want 1", got)
	}
}

func TestStaleContentDiesInBothTiers(t *testing.T) {
	s := ramStore(t, 1)
	var evicted []string
	s.SetEvictionHook(func(e *cache.Entry) { evicted = append(evicted, e.Data.Name.String()) })

	a := mkData(t, "/t/a")
	a.Freshness = 10 * time.Millisecond
	s.Insert(a, 0, 0)
	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0) // /t/a demoted while fresh

	if got := s.SecondLen(); got != 1 {
		t.Fatalf("SecondLen = %d, want 1", got)
	}
	// Past the freshness bound the disk lookup purges instead of serving.
	if _, found := s.Exact(a.Name, 20*time.Millisecond); found {
		t.Fatal("stale disk-resident entry served")
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d, want 1 after stale purge", got)
	}
	if got := s.SecondLen(); got != 0 {
		t.Errorf("SecondLen = %d, want 0 after stale purge", got)
	}
	if len(evicted) != 1 || evicted[0] != "/t/a" {
		t.Errorf("eviction hook saw %v, want [/t/a]", evicted)
	}
}

func TestRemoveAndClearSpanBothTiers(t *testing.T) {
	s := ramStore(t, 1)
	var evicted []string
	s.SetEvictionHook(func(e *cache.Entry) { evicted = append(evicted, e.Data.Name.String()) })

	s.Insert(mkData(t, "/t/a"), 0, 0)
	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0) // /t/a on disk, /t/b in RAM

	if !s.Remove(ndn.MustParseName("/t/a"), 2*time.Millisecond) {
		t.Fatal("Remove of disk-resident entry reported absent")
	}
	if s.Remove(ndn.MustParseName("/t/a"), 2*time.Millisecond) {
		t.Fatal("second Remove reported present")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 after Remove", got)
	}

	s.Insert(mkData(t, "/t/c"), 3*time.Millisecond, 0) // /t/b demoted
	s.Clear(4 * time.Millisecond)
	if got, ram, disk := s.Len(), s.RAMLen(), s.SecondLen(); got != 0 || ram != 0 || disk != 0 {
		t.Fatalf("Len/RAMLen/SecondLen = %d/%d/%d after Clear, want 0/0/0", got, ram, disk)
	}
	want := []string{"/t/a", "/t/b", "/t/c"}
	if len(evicted) != len(want) {
		t.Fatalf("eviction hook saw %v, want %v", evicted, want)
	}
	for i, key := range want {
		if evicted[i] != key {
			t.Errorf("eviction %d = %s, want %s", i, evicted[i], key)
		}
	}
}

func TestSecondTierOverflowEvicts(t *testing.T) {
	s := tieredStore(t, 1, NewDiskModel(DiskModelConfig{Capacity: 2}))
	var evicted []string
	s.SetEvictionHook(func(e *cache.Entry) { evicted = append(evicted, e.Data.Name.String()) })

	for i, name := range []string{"/t/a", "/t/b", "/t/c", "/t/d"} {
		s.Insert(mkData(t, name), time.Duration(i)*time.Millisecond, 0)
	}
	// RAM holds /t/d; disk holds the two most recent demotions /t/b,
	// /t/c; /t/a overflowed off the disk FIFO.
	if got := s.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := s.Evictions(); got != 1 {
		t.Errorf("Evictions = %d, want 1 (only true overflow counts)", got)
	}
	if len(evicted) != 1 || evicted[0] != "/t/a" {
		t.Errorf("eviction hook saw %v, want [/t/a]", evicted)
	}
	if _, found := s.Exact(ndn.MustParseName("/t/b"), 10*time.Millisecond); !found {
		t.Error("surviving disk entry /t/b not found")
	}
}

// failingTier is a second tier whose every write fails.
type failingTier struct{ cache.SecondTier }

func (failingTier) Put(*cache.Entry, time.Duration) ([]*cache.Entry, error) {
	return nil, errors.New("write failed")
}

func TestFailedDemotionIsNotAnEviction(t *testing.T) {
	s := tieredStore(t, 1, failingTier{NewDiskModel(DiskModelConfig{})})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder()
	s.Attach(telemetry.NewTap(telemetry.Hooks{Registry: reg, Sink: rec}, "R"))
	var evicted []string
	s.SetEvictionHook(func(e *cache.Entry) { evicted = append(evicted, e.Data.Name.String()) })

	s.Insert(mkData(t, "/t/a"), 0, 0)
	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0) // demoting /t/a fails: /t/a is lost

	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	if len(evicted) != 1 || evicted[0] != "/t/a" {
		t.Errorf("eviction hook saw %v, want [/t/a]", evicted)
	}
	if got := s.Demotions(); got != 1 {
		t.Errorf("Demotions = %d, want 1", got)
	}
	// Only objects dropped to make room count; the lost write does not.
	if got := s.Evictions(); got != 0 {
		t.Errorf("Evictions = %d, want 0", got)
	}
	if got := reg.Counter(telemetry.ID("ndn_cs_evictions_total", "node", "R")).Value(); got != 0 {
		t.Errorf("evictions counter = %d, want 0", got)
	}
	if got := reg.Counter(telemetry.ID("ndn_cs_tier2_writes_total", "node", "R")).Value(); got != 0 {
		t.Errorf("tier writes counter = %d, want 0", got)
	}
	var last telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Type == telemetry.EvCSEvict {
			last = ev
		}
	}
	if last.Name != "/t/a" || last.Action != string(cache.ReasonCapacity) {
		t.Errorf("eviction event = %+v, want /t/a with action capacity", last)
	}
}

func TestPromotionPreservesAlgorithmState(t *testing.T) {
	s := ramStore(t, 1)
	a := mkData(t, "/t/a")
	entry := s.Insert(a, 0, 7*time.Millisecond)
	entry.ForwardCount = 5
	entry.Counter = 3
	entry.Threshold = 9
	entry.ThresholdSet = true
	entry.Private = true
	entry.GroupKey = "/t"

	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0) // demote /t/a
	promoted, found := s.Exact(a.Name, 2*time.Millisecond)
	if !found {
		t.Fatal("demoted entry not found")
	}
	if promoted.ForwardCount != 5 || promoted.Counter != 3 || promoted.Threshold != 9 ||
		!promoted.ThresholdSet || !promoted.Private || promoted.GroupKey != "/t" {
		t.Errorf("promotion dropped algorithm state: %+v", promoted)
	}
	if promoted.FetchDelay != 7*time.Millisecond {
		t.Errorf("FetchDelay = %v, want 7ms", promoted.FetchDelay)
	}
}

// A refresh of content that currently lives in the second tier (a prefix
// interest misses that tier's exact-only index, goes upstream, and the
// Data comes back) must keep the entry's Algorithm-1 state, exactly as a
// refresh of RAM-resident content and a promotion do: the content never
// left the cache.
func TestRefreshOfDemotedEntryKeepsAlgorithmState(t *testing.T) {
	s := ramStore(t, 1)
	rec := telemetry.NewRecorder()
	s.Attach(telemetry.NewTap(telemetry.Hooks{Sink: rec}, "R"))
	a := mkData(t, "/t/a")
	entry := s.Insert(a, 0, 7*time.Millisecond)
	entry.ForwardCount = 5
	entry.Counter = 3
	entry.Threshold = 9
	entry.ThresholdSet = true
	entry.Private = true
	entry.NonPrivateTrigger = true
	entry.GroupKey = "/t"

	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0) // demote /t/a
	if ram, disk := s.RAMLen(), s.SecondLen(); ram != 1 || disk != 1 {
		t.Fatalf("RAM/disk = %d/%d before refresh, want 1/1", ram, disk)
	}

	refreshed := s.Insert(mkData(t, "/t/a"), 2*time.Millisecond, 4*time.Millisecond)
	if refreshed.ForwardCount != 5 || refreshed.Counter != 3 || refreshed.Threshold != 9 ||
		!refreshed.ThresholdSet || !refreshed.Private || !refreshed.NonPrivateTrigger || refreshed.GroupKey != "/t" {
		t.Errorf("refresh of a demoted entry reset algorithm state: %+v", refreshed)
	}
	if refreshed.InsertedAt != 2*time.Millisecond || refreshed.FetchDelay != 4*time.Millisecond {
		t.Errorf("refresh kept old timing: inserted %v, fetch delay %v", refreshed.InsertedAt, refreshed.FetchDelay)
	}
	// One copy, now in RAM; /t/b took its place on disk.
	if got, ram, disk := s.Len(), s.RAMLen(), s.SecondLen(); got != 2 || ram != 1 || disk != 1 {
		t.Errorf("Len/RAM/disk = %d/%d/%d after refresh, want 2/1/1", got, ram, disk)
	}
	if _, tier, _ := lookupName(s, a.Name, 3*time.Millisecond); tier != tierRAM {
		t.Errorf("refreshed entry served from %v, want RAM", tier)
	}
	if got := s.Insertions(); got != 2 {
		t.Errorf("Insertions = %d, want 2 (a refresh is not an insertion)", got)
	}
	events := rec.Events()
	if last := events[len(events)-1]; last.Type != telemetry.EvCSInsert || last.Action != "refresh" {
		t.Errorf("last event = %s:%s, want cs_insert:refresh", last.Type, last.Action)
	}
}

func TestTelemetryEventsAndCounters(t *testing.T) {
	s := ramStore(t, 1)
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder()
	s.Attach(telemetry.NewTap(telemetry.Hooks{Registry: reg, Sink: rec}, "R"))

	s.Insert(mkData(t, "/t/a"), 0, 0)
	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0)       // demote /t/a
	s.Exact(ndn.MustParseName("/t/a"), 2*time.Millisecond) // promote /t/a
	s.Remove(ndn.MustParseName("/t/b"), 3*time.Millisecond)

	var types []string
	for _, ev := range rec.Events() {
		types = append(types, ev.Type+":"+ev.Action)
	}
	want := []string{
		"cs_insert:new",
		"cs_demote:demote", "cs_insert:new", // insert of /t/b demotes /t/a first
		"cs_promote:promote", "cs_demote:demote", // promoting /t/a displaces /t/b
		"cs_evict:remove",
	}
	if len(types) != len(want) {
		t.Fatalf("event stream %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("event %d = %s, want %s", i, types[i], want[i])
		}
	}
	if got := reg.Counter(telemetry.ID("ndn_cs_promotions_total", "node", "R")).Value(); got != 1 {
		t.Errorf("promotions counter = %d, want 1", got)
	}
	if got := reg.Counter(telemetry.ID("ndn_cs_demotions_total", "node", "R")).Value(); got != 2 {
		t.Errorf("demotions counter = %d, want 2", got)
	}
}

func TestResidencySpansSurviveTierMovement(t *testing.T) {
	s := ramStore(t, 1)
	tr := span.NewTracer(1)
	s.Attach(telemetry.NewTap(telemetry.Hooks{Tracer: tr}, "R"))

	s.Insert(mkData(t, "/t/a"), 0, 0)
	s.Insert(mkData(t, "/t/b"), time.Millisecond, 0)        // demote /t/a
	s.Exact(ndn.MustParseName("/t/a"), 2*time.Millisecond)  // promote /t/a
	s.Remove(ndn.MustParseName("/t/a"), 3*time.Millisecond) // ends /t/a residency
	s.FinishSpans(4 * time.Millisecond)                     // ends /t/b residency

	var residency, tier []span.Record
	for _, r := range tr.Records() {
		switch r.Kind {
		case span.KindResidency:
			residency = append(residency, r)
		case span.KindTier:
			tier = append(tier, r)
		}
	}
	if len(residency) != 2 {
		t.Fatalf("residency spans = %d, want 2 (one per object, tier moves don't split them)", len(residency))
	}
	for _, r := range residency {
		switch r.Name {
		case "/t/a":
			if r.Action != "remove" || r.Start != 0 || r.End != int64(3*time.Millisecond) {
				t.Errorf("/t/a residency = %+v, want [0,3ms] remove", r)
			}
		case "/t/b":
			if r.Action != "resident" {
				t.Errorf("/t/b residency action = %s, want resident", r.Action)
			}
		}
	}
	if len(tier) != 3 {
		t.Fatalf("tier spans = %d, want 3 (demote a, promote a, demote b)", len(tier))
	}
	if tier[0].Action != "demote" || tier[1].Action != "promote" || tier[2].Action != "demote" {
		t.Errorf("tier actions = %s,%s,%s want demote,promote,demote",
			tier[0].Action, tier[1].Action, tier[2].Action)
	}
	if tier[1].Value == 0 {
		t.Error("promote span carries no read cost")
	}
}

func TestNamesSortedAcrossTiers(t *testing.T) {
	s := ramStore(t, 1)
	for i, name := range []string{"/t/c", "/t/a", "/t/b"} {
		s.Insert(mkData(t, name), time.Duration(i)*time.Millisecond, 0)
	}
	names := s.Names()
	if len(names) != 3 {
		t.Fatalf("Names = %d entries, want 3", len(names))
	}
	for i, want := range []string{"/t/a", "/t/b", "/t/c"} {
		if names[i].String() != want {
			t.Errorf("Names[%d] = %s, want %s", i, names[i].String(), want)
		}
	}
}

func TestDiskModelDeterministicQueueing(t *testing.T) {
	run := func() []time.Duration {
		d := NewDiskModel(DiskModelConfig{ReadLatency: time.Millisecond, BytesPerSecond: 1 << 20})
		e := &cache.Entry{Data: mustData("/q/a")}
		d.Put(e, 0)
		var costs []time.Duration
		for i := 0; i < 3; i++ {
			_, cost, ok := d.Peek(ndn.MustParseName("/q/a"), 10*time.Millisecond)
			if !ok {
				panic("entry missing")
			}
			costs = append(costs, cost)
		}
		return costs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at read %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Back-to-back reads at the same instant queue behind each other.
	if !(a[0] < a[1] && a[1] < a[2]) {
		t.Errorf("queueing costs not increasing: %v", a)
	}
}

func mustData(name string) *ndn.Data {
	d, err := ndn.NewData(ndn.MustParseName(name), []byte("payload-"+name))
	if err != nil {
		panic(err)
	}
	return d
}
