package fwd

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// TestStageRecordZeroAlloc pins the zero-allocation contract of the
// observation seam: every stage's one recording call costs nothing on
// the heap, with counters attached and with nothing attached. The
// hit/miss delay gap is the paper's attack signal, so the accounting on
// either side must not add allocation jitter the other side doesn't
// have. (Trace emission is opt-in and allocates its events.)
func TestStageRecordZeroAlloc(t *testing.T) {
	counted := netsim.New(1)
	counted.SetTelemetry(telemetry.NewRegistry(), nil)
	for _, attached := range []struct {
		name string
		sim  *netsim.Simulator
	}{{"counters", counted}, {"nothing", netsim.New(1)}} {
		f, err := New(Config{Name: "n", Sim: attached.sim})
		if err != nil {
			t.Fatal(err)
		}
		// Give the node every stage's counter, not only the forwarder's.
		f.tap.Register(0, telemetry.NumStages-1)
		name := ndn.MustParseName("/alloc/stage")
		for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
			r := telemetry.Rec{Stage: s, Name: &name, Face: 1, Action: "x", T0: 1, T1: 2, Value: 3}
			if n := testing.AllocsPerRun(200, func() { f.rec(&r) }); n != 0 {
				t.Errorf("%s attached, %s: %.0f allocs/run, want 0", attached.name, s, n)
			}
		}
	}
}

// countedForwarder builds a node whose simulator carries a metrics
// registry, so its stage outcomes reach registered counters.
func countedForwarder(t *testing.T) *Forwarder {
	t.Helper()
	sim := netsim.New(1)
	sim.SetTelemetry(telemetry.NewRegistry(), nil)
	f, err := New(Config{Name: "n", Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMissTelemetryZeroAlloc pins the miss side of the attack signal:
// recording a real Content Store miss, as the pipeline does, allocates
// nothing with counters attached.
func TestMissTelemetryZeroAlloc(t *testing.T) {
	f := countedForwarder(t)
	name := ndn.MustParseName("/alloc/miss")
	r := telemetry.Rec{Stage: telemetry.StageCSMiss, Name: &name, Face: 1, T0: 3, T1: 3}
	if n := testing.AllocsPerRun(200, func() { f.rec(&r) }); n != 0 {
		t.Errorf("cs_miss (instrumented): %.0f allocs/run, want 0", n)
	}
	if f.Stats().RealMisses == 0 {
		t.Error("cs_miss not tallied")
	}
}

// TestDropTelemetryZeroAlloc pins the four ways an interest dies at a
// node: each drop's recording allocates nothing with counters attached.
func TestDropTelemetryZeroAlloc(t *testing.T) {
	f := countedForwarder(t)
	name := ndn.MustParseName("/alloc/drop")
	for _, stage := range []telemetry.Stage{
		telemetry.StageDropScope, telemetry.StageDropDupNonce,
		telemetry.StageDropPITFull, telemetry.StageDropNoRoute,
	} {
		r := telemetry.Rec{Stage: stage, Name: &name, Face: 1, T0: 4, T1: 4}
		if n := testing.AllocsPerRun(200, func() { f.rec(&r) }); n != 0 {
			t.Errorf("%s: %.0f allocs/run, want 0", stage, n)
		}
	}
	if s := f.Stats(); s.ScopeDropped == 0 || s.DuplicatesDropped == 0 || s.PITRejected == 0 || s.NoRouteDropped == 0 {
		t.Errorf("drops not tallied: %+v", s)
	}
}

// storeKinds builds the two shapes of Content Store — flat, and a RAM
// front over a second tier that already holds a demoted object — so the
// zero-allocation pins below hold for both: the forwarder runs one
// pipeline, whichever it is given.
var storeKinds = []struct {
	name  string
	build func(t *testing.T) *cache.Store
}{
	{"flat", func(t *testing.T) *cache.Store { return cache.MustNewStore(2, cache.NewLRU()) }},
	{"tiered", func(t *testing.T) *cache.Store {
		s, err := cache.NewTieredStore(2, cache.NewLRU(), tiered.NewDiskModel(tiered.DiskModelConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"/spill/a", "/spill/b", "/spill/c"} {
			d, err := ndn.NewData(ndn.MustParseName(name), []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			s.Insert(d, 0, 0)
		}
		if s.SecondLen() == 0 {
			t.Fatal("nothing demoted")
		}
		return s
	}},
}

func TestProbeWireZeroAlloc(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			router, err := NewStoreRouter(netsim.New(1), "R", kind.build(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err := ndn.NewData(ndn.MustParseName("/probe/hot"), []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			router.Store().Insert(d, 0, 0)
			hitWire := ndn.EncodeInterest(ndn.NewInterest(d.Name, 1))
			missWire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/probe/cold"), 2))
			truncated := hitWire[:len(hitWire)-1]
			hits := 0
			if n := testing.AllocsPerRun(200, func() {
				if cached, _ := router.ProbeWire(hitWire, 0); cached {
					hits++
				}
				if cached, _ := router.ProbeWire(missWire, 0); cached {
					t.Fatal("cold probe reported cached")
				}
				if cached, pending := router.ProbeWire(truncated, 0); cached || pending {
					t.Fatal("malformed probe reported a table hit")
				}
			}); n != 0 {
				t.Errorf("ProbeWire (hit + miss + malformed): %.0f allocs/run, want 0", n)
			}
			if hits == 0 {
				t.Fatal("hot probe unexpectedly missed")
			}
		})
	}
}

func TestProbeWireWithSpansZeroAlloc(t *testing.T) {
	// Span recording on the wire-probe path must stay allocation-free
	// when the tracer's chunk storage is pre-reserved: the paper's
	// timing signal must not gain GC jitter from observability.
	sim := netsim.New(1)
	tracer := span.NewTracer(1)
	sim.SetSpans(tracer)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ndn.NewData(ndn.MustParseName("/probe/hot"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	router.Store().Insert(d, 0, 0)
	hitWire := ndn.EncodeInterest(ndn.NewInterest(d.Name, 1))
	missWire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/probe/cold"), 2))
	tracer.Reserve(tracer.Len() + 4096)
	if n := testing.AllocsPerRun(200, func() {
		router.ProbeWire(hitWire, 0)
		router.ProbeWire(missWire, 0)
	}); n != 0 {
		t.Errorf("ProbeWire with spans enabled: %.0f allocs/run, want 0", n)
	}
	if tracer.Len() == 0 {
		t.Fatal("no view-probe spans recorded")
	}
}

func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	// With nothing attached, an interest that misses a storeless node and
	// dies for its scope records two stages and allocates nothing.
	f, err := New(Config{Name: "n", Sim: netsim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/off"), 5).WithScope(ndn.ScopeLocal)
	if n := testing.AllocsPerRun(200, func() {
		f.handleInterest(1, interest)
	}); n != 0 {
		t.Errorf("telemetry disabled: %.0f allocs/run, want 0", n)
	}
	if s := f.Stats(); s.RealMisses == 0 || s.ScopeDropped != s.RealMisses {
		t.Fatalf("stats %+v, want every interest a miss dropped for its scope", s)
	}
}

func TestFusedInterestStepZeroAlloc(t *testing.T) {
	// The interest step — one ProbeName shared by the CS check
	// (MatchProbed, then MatchSecond on a miss) and the PIT admission
	// (InsertProbed), then Data satisfaction by the returned token — must
	// not allocate in steady state, on the hit leg, the prefix leg or the
	// miss leg.
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			store := kind.build(t)
			pit := table.NewPITOn(store.Table())
			hot, err := ndn.NewData(ndn.MustParseName("/step/hot"), []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			// A session object under an unpredictable name sorts before the
			// hot name, so a prefix interest for /step passes over it — a
			// shorter prefix must not be answered with it (footnote 5) —
			// before the sorted index answers with the hot name.
			secret, err := ndn.NewSharedSecret([]byte("step"))
			if err != nil {
				t.Fatal(err)
			}
			session, err := ndn.NewData(secret.UnpredictableName(ndn.MustParseName("/step/a"), 1), []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			store.Insert(hot, 0, 0)
			store.Insert(session, 0, 0)
			hitInterest := ndn.NewInterest(hot.Name, 7)
			prefixInterest := ndn.NewInterest(ndn.MustParseName("/step"), 9)
			cold := ndn.MustParseName("/step/cold")
			missInterest := ndn.NewInterest(cold, 8)
			coldData, err := ndn.NewData(cold, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			// Prime one pending lifecycle so the table arena, facet pool
			// and result buffers reach steady state (first admission
			// allocates by design), and the first prefix lookup, which
			// builds the sorted index once.
			pr := store.ProbeName(prefixInterest.Name)
			store.MatchProbed(prefixInterest, &pr, 0)
			pr = store.ProbeName(cold)
			pit.InsertProbed(missInterest, 1, 0, &pr)
			if _, ok := pit.SatisfyByToken(coldData, 0, 0); !ok {
				t.Fatal("prime satisfaction failed")
			}
			if n := testing.AllocsPerRun(200, func() {
				// Hit leg: probe → CS match → recency touch.
				p := store.ProbeName(hitInterest.Name)
				if _, found := store.MatchProbed(hitInterest, &p, 0); !found {
					t.Fatal("hot name missed")
				}
				store.Touch(hot.Name)
				// Prefix leg: no exact entry, the sorted index answers.
				p = store.ProbeName(prefixInterest.Name)
				if entry, found := store.MatchProbed(prefixInterest, &p, 0); !found || entry.Data != hot {
					t.Fatal("prefix interest not answered by the hot name")
				}
				// Miss leg: the same probe feeds CS check and PIT
				// admission; the token satisfies without a hash sweep.
				p = store.ProbeName(cold)
				if _, found := store.MatchProbed(missInterest, &p, 0); found {
					t.Fatal("cold name hit")
				}
				if _, _, found := store.MatchSecond(missInterest, 0); found {
					t.Fatal("cold name hit the second tier")
				}
				_, tok := pit.InsertProbed(missInterest, 1, 0, &p)
				if tok == 0 {
					t.Fatal("no token returned")
				}
				if _, ok := pit.SatisfyByToken(coldData, tok, 0); !ok {
					t.Fatal("token satisfaction failed")
				}
			}); n != 0 {
				t.Errorf("interest step: %.2f allocs/run, want 0", n)
			}
		})
	}
}

func TestCachedFetchAllocBudget(t *testing.T) {
	// One fetch answered by R's store on the chain U — R — P: 8 simulator
	// events, none of which allocates (value-typed heap, handlers bound
	// at attach time), sizes by arithmetic, header-only Data copies, and
	// no hop renders a name. What is left is the fetch's one record and
	// the packets' headers — see DESIGN.md "Packet path cost" for the list
	// of 4 — and the budget is exactly that: a render or a copy put back
	// on the path fails it.
	sim, consumer, producer := benchTopology(t, nil)
	name := ndn.MustParseName("/p/hot")
	d, err := ndn.NewData(name, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Publish(d); err != nil {
		t.Fatal(err)
	}
	answered := 0
	handler := func(res FetchResult) {
		if !res.TimedOut && len(res.Data.Payload) == 1024 {
			answered++
		}
	}
	consumer.FetchName(name, handler) // fills R's store
	sim.Run()
	steps, served := sim.Steps(), producer.Served()
	const runs = 200
	n := testing.AllocsPerRun(runs, func() {
		consumer.FetchName(name, handler)
		sim.Run()
	})
	if n > 4 {
		t.Errorf("cached fetch on U-R-P: %.1f allocs/fetch, want <= 4", n)
	}
	// AllocsPerRun runs the function once more to warm up.
	if answered != runs+2 || producer.Served() != served {
		t.Fatalf("%d of %d fetches answered, producer served %d after the first", answered, runs+2, producer.Served()-served)
	}
	if got := (sim.Steps() - steps) / (runs + 1); got != 8 {
		t.Errorf("%d simulator events per cached fetch, want 8", got)
	}
}

// missRing is the benchmark's sim_miss workload in miniature: the chain
// U — R1 — R2 — P with two small LRU stores, and a ring of names eight
// times their total capacity fetched in order, so every fetch misses
// both routers and the producer answers it.
type missRing struct {
	sim      *netsim.Simulator
	r1       *Forwarder
	consumer *Consumer
	producer *Producer
	names    []ndn.Name
	next     int
	answered int
	handler  func(FetchResult)
}

func newMissRing(t *testing.T, payload int) *missRing {
	t.Helper()
	const capacity = 16
	sim := netsim.New(1)
	u, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRouter(sim, "R1", capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRouter(sim, "R2", capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}
	if err := Chain(sim, []*Forwarder{u, r1, r2, p}, netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)}, "/p"); err != nil {
		t.Fatal(err)
	}
	m := &missRing{sim: sim, r1: r1, names: make([]ndn.Name, 8*2*capacity)}
	if m.producer, err = NewProducer(p, ndn.MustParseName("/p"), nil); err != nil {
		t.Fatal(err)
	}
	if m.consumer, err = NewConsumer(u); err != nil {
		t.Fatal(err)
	}
	for i := range m.names {
		m.names[i] = ndn.MustParseName("/p/o/" + strconv.Itoa(i))
		d, err := ndn.NewData(m.names[i], make([]byte, payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.producer.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	m.handler = func(res FetchResult) {
		if !res.TimedOut && len(res.Data.Payload) == payload {
			m.answered++
		}
	}
	// Warm up: both stores full and evicting, tables at their size.
	for range m.names {
		m.fetch()
	}
	return m
}

// fetch fetches the ring's next name and runs the simulator until idle.
func (m *missRing) fetch() {
	m.consumer.FetchName(m.names[m.next], m.handler)
	m.sim.Run()
	m.next = (m.next + 1) % len(m.names)
}

// bytesPerFetch runs n fetches and returns the heap bytes they
// allocated, per fetch.
func (m *missRing) bytesPerFetch(n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.fetch()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func TestMissFetchAllocBudget(t *testing.T) {
	// A fetch that misses both routers allocates the fetch's record, the
	// nodes' upstream interest copies and downstream Data header copies
	// and the producer's answer: 9 (DESIGN.md "Packet path cost"), in 19
	// events, and no hop renders a name. Each caching store keeps the
	// packet that arrived; a store header copy or a rendered name brought
	// back fails the count.
	// No hop copies the payload, so a 1 KiB payload costs a fetch no more
	// heap than a 1-byte one; a payload copy brought back at any hop
	// fails the byte bound.
	const kib, runs = 1024, 200
	m := newMissRing(t, kib)
	steps, served, hits, answered := m.sim.Steps(), m.producer.Served(), m.r1.Stats().CacheHits, m.answered
	n := testing.AllocsPerRun(runs, m.fetch)
	if n > 9 {
		t.Errorf("missed fetch on U-R1-R2-P: %.1f allocs/fetch, want <= 9", n)
	}
	// AllocsPerRun runs the function once more to warm up.
	if got := m.producer.Served() - served; got != runs+1 || m.r1.Stats().CacheHits != hits || m.answered-answered != runs+1 {
		t.Fatalf("producer served %d of %d fetches, %d answered, R1 hit %d: want every fetch a miss answered by P",
			got, runs+1, m.answered-answered, m.r1.Stats().CacheHits-hits)
	}
	if got := (m.sim.Steps() - steps) / (runs + 1); got != 19 {
		t.Errorf("%d simulator events per missed fetch, want 19", got)
	}
	tiny := newMissRing(t, 1)
	large, small := m.bytesPerFetch(runs), tiny.bytesPerFetch(runs)
	t.Logf("missed fetch: %.1f allocs, %.0f B with a 1 KiB payload, %.0f B with a 1 B one", n, large, small)
	if grown := large - small; grown >= kib {
		t.Errorf("missed fetch allocates %.0f B with a 1 KiB payload and %.0f B with a 1 B one: "+
			"%.0f B per fetch grow with the payload, want < %d (a payload copy)", large, small, grown, kib)
	}
}
