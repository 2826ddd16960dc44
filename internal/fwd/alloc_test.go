package fwd

import (
	"testing"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// These tests pin the zero-allocation contract of the //ndnlint:hotpath
// annotations on the forwarder's miss/drop accounting: the hit/miss
// delay gap is the paper's attack signal, so the accounting on the miss
// side must not add allocation jitter the hit side doesn't have.

func TestMissTelemetryZeroAlloc(t *testing.T) {
	// Registry-only instrumentation: counters are registered up front,
	// the trace sink is absent (its emission path carries an explicit
	// alloccheck waiver and is opt-in).
	f, err := New(Config{Name: "n", Sim: netsim.New(1), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/miss"), 3)
	if n := testing.AllocsPerRun(200, func() {
		f.missTelemetry(interest, 1, 0)
	}); n != 0 {
		t.Errorf("missTelemetry (instrumented): %.0f allocs/run, want 0", n)
	}
}

func TestDropTelemetryZeroAlloc(t *testing.T) {
	f, err := New(Config{Name: "n", Sim: netsim.New(1), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/drop"), 4)
	for _, reason := range []string{"scope", "dup_nonce", "pit_full", "no_route"} {
		if n := testing.AllocsPerRun(200, func() {
			f.dropTelemetry(interest, 1, 0, reason)
		}); n != 0 {
			t.Errorf("dropTelemetry(%s): %.0f allocs/run, want 0", reason, n)
		}
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
			hits := 0
			if n := testing.AllocsPerRun(200, func() {
				if cached, _ := router.ProbeWire(hitWire, 0); cached {
					hits++
				}
				if cached, _ := router.ProbeWire(missWire, 0); cached {
					t.Fatal("cold probe reported cached")
				}
			}); n != 0 {
				t.Errorf("ProbeWire (hit + miss): %.0f allocs/run, want 0", n)
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
	f, err := New(Config{Name: "n", Sim: netsim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/off"), 5)
	if n := testing.AllocsPerRun(200, func() {
		f.missTelemetry(interest, 1, 0)
		f.dropTelemetry(interest, 1, 0, "scope")
	}); n != 0 {
		t.Errorf("telemetry disabled: %.0f allocs/run, want 0", n)
	}
}

func TestFusedInterestStepZeroAlloc(t *testing.T) {
	// The interest step — one ProbeName shared by the CS check
	// (MatchProbed, then MatchSecond on a miss) and the PIT admission
	// (InsertProbed), then Data satisfaction by the returned token — must
	// not allocate in steady state, on the hit leg or the miss leg.
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			store := kind.build(t)
			pit := table.NewPITOn(store.Table())
			hot, err := ndn.NewData(ndn.MustParseName("/step/hot"), []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			store.Insert(hot, 0, 0)
			hitInterest := ndn.NewInterest(hot.Name, 7)
			cold := ndn.MustParseName("/step/cold")
			missInterest := ndn.NewInterest(cold, 8)
			coldData, err := ndn.NewData(cold, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			// Prime one pending lifecycle so the table arena, facet pool
			// and result buffers reach steady state (first admission
			// allocates by design).
			pr := store.ProbeName(cold)
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
	// at attach time), sizes by arithmetic, header-only Data copies. What
	// is left is the packets themselves — see DESIGN.md "Packet path
	// cost" for the list. The budget leaves one or two of slack over the
	// measured count; ROADMAP's target for EndToEndFetchHit is ≤ 15.
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
	if n > 16 {
		t.Errorf("cached fetch on U-R-P: %.1f allocs/fetch, want <= 16", n)
	}
	// AllocsPerRun runs the function once more to warm up.
	if answered != runs+2 || producer.Served() != served {
		t.Fatalf("%d of %d fetches answered, producer served %d after the first", answered, runs+2, producer.Served()-served)
	}
	if got := (sim.Steps() - steps) / (runs + 1); got != 8 {
		t.Errorf("%d simulator events per cached fetch, want 8", got)
	}
}
