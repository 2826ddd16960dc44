package fwd

import (
	"fmt"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// benchTopology builds consumer — router — producer with fast links.
func benchTopology(b testing.TB, manager core.CacheManager) (*netsim.Simulator, *Consumer, *Producer) {
	b.Helper()
	sim := netsim.New(1)
	consumer, producer := benchTopologyOn(b, sim, manager)
	return sim, consumer, producer
}

// benchTopologyOn builds the same topology on a caller-prepared
// simulator, so instrumentation (telemetry, span tracing) attached to
// sim before the call is captured by every node.
func benchTopologyOn(b testing.TB, sim *netsim.Simulator, manager core.CacheManager) (*Consumer, *Producer) {
	b.Helper()
	chain := buildURP(b, sim, manager)
	return chain.consumer, chain.producer
}

// urpChain is the chain U — R — P: a consumer on bare host U, a caching
// router R, a producer for /p on bare host P.
type urpChain struct {
	consumer *Consumer
	router   *Forwarder
	producer *Producer
	edge     *netsim.Link // U — R
}

func buildURP(b testing.TB, sim *netsim.Simulator, manager core.CacheManager) urpChain {
	b.Helper()
	router, err := NewRouter(sim, "R", 0, manager)
	if err != nil {
		b.Fatal(err)
	}
	host, err := NewBareHost(sim, "U")
	if err != nil {
		b.Fatal(err)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.LinkConfig{Latency: netsim.Fixed(100 * time.Microsecond)}
	uFace, _, edge, err := Connect(sim, host, router, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rFace, _, _, err := Connect(sim, router, pHost, cfg)
	if err != nil {
		b.Fatal(err)
	}
	prefix := ndn.MustParseName("/p")
	if err := host.RegisterPrefix(prefix, uFace); err != nil {
		b.Fatal(err)
	}
	if err := router.RegisterPrefix(prefix, rFace); err != nil {
		b.Fatal(err)
	}
	producer, err := NewProducer(pHost, prefix, nil)
	if err != nil {
		b.Fatal(err)
	}
	consumer, err := NewConsumer(host)
	if err != nil {
		b.Fatal(err)
	}
	return urpChain{consumer: consumer, router: router, producer: producer, edge: edge}
}

// BenchmarkEndToEndFetchMiss measures a full interest→producer→data
// round trip through the simulator.
func BenchmarkEndToEndFetchMiss(b *testing.B) {
	sim, consumer, producer := benchTopology(b, nil)
	for i := 0; i < b.N; i++ {
		d, err := ndn.NewData(ndn.MustParseName(fmt.Sprintf("/p/o%d", i)), []byte("x"))
		if err != nil {
			b.Fatal(err)
		}
		if err := producer.Publish(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumer.FetchName(ndn.MustParseName(fmt.Sprintf("/p/o%d", i)), func(FetchResult) {})
		sim.Run()
	}
}

// BenchmarkEndToEndFetchHit measures fetches served from the router's
// cache.
func BenchmarkEndToEndFetchHit(b *testing.B) {
	sim, consumer, producer := benchTopology(b, nil)
	d, err := ndn.NewData(ndn.MustParseName("/p/hot"), []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	if err := producer.Publish(d); err != nil {
		b.Fatal(err)
	}
	consumer.FetchName(ndn.MustParseName("/p/hot"), func(FetchResult) {})
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumer.FetchName(ndn.MustParseName("/p/hot"), func(FetchResult) {})
		sim.Run()
	}
}

// BenchmarkProbeWire measures the wire-facing hit/miss classification:
// raw encoded Interest → zero-copy name view → hash-indexed CS and PIT
// probes, with no packet decode and no owned name. This is the latency
// surface the paper's timing adversary samples, end to end.
func BenchmarkProbeWire(b *testing.B) {
	sim := netsim.New(1)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	d, err := ndn.NewData(ndn.MustParseName("/p/hot"), []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	router.Store().Insert(d, 0, 0)
	wire := ndn.EncodeInterest(ndn.NewInterest(d.Name, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cached, _ := router.ProbeWire(wire, 0); !cached {
			b.Fatal("miss")
		}
	}
}

// discardSink counts events without retaining them, so telemetry-on
// benchmarks are not dominated by sink memory growth.
type discardSink struct{ n uint64 }

func (s *discardSink) Emit(telemetry.Event) { s.n++ }

// BenchmarkEndToEndFetchHitTelemetry is BenchmarkEndToEndFetchHit with a
// live registry and trace sink attached; the delta between the two
// benchmarks is the full price of enabled telemetry. With telemetry
// disabled the node's tap is nil and each stage costs one tally and one
// branch — TestStageRecordZeroAlloc pins every stage at zero
// allocations either way.
func BenchmarkEndToEndFetchHitTelemetry(b *testing.B) {
	sim := netsim.New(1)
	sink := &discardSink{}
	sim.SetTelemetry(telemetry.NewRegistry(), sink)
	consumer, producer := benchTopologyOn(b, sim, nil)
	d, err := ndn.NewData(ndn.MustParseName("/p/hot"), []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	if err := producer.Publish(d); err != nil {
		b.Fatal(err)
	}
	consumer.FetchName(ndn.MustParseName("/p/hot"), func(FetchResult) {})
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumer.FetchName(ndn.MustParseName("/p/hot"), func(FetchResult) {})
		sim.Run()
	}
	if sink.n == 0 {
		b.Fatal("telemetry sink saw no events")
	}
}

// BenchmarkEndToEndFetchHitSpans is BenchmarkEndToEndFetchHit with an
// interest-lifecycle span tracer attached; the delta against the plain
// hit benchmark is the full price of causal span recording (root +
// hop + CS + CM + link spans per fetch). The tracer is drained between
// batches outside the timer so long -benchtime runs measure recording,
// not retained-trace memory growth.
func BenchmarkEndToEndFetchHitSpans(b *testing.B) {
	sim := netsim.New(1)
	tracer := span.NewTracer(1)
	sim.SetSpans(tracer)
	consumer, producer := benchTopologyOn(b, sim, nil)
	d, err := ndn.NewData(ndn.MustParseName("/p/hot"), []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	if err := producer.Publish(d); err != nil {
		b.Fatal(err)
	}
	consumer.FetchName(ndn.MustParseName("/p/hot"), func(FetchResult) {})
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tracer.Len() >= 1<<18 {
			b.StopTimer()
			tracer.Reset()
			b.StartTimer()
		}
		consumer.FetchName(ndn.MustParseName("/p/hot"), func(FetchResult) {})
		sim.Run()
	}
	if tracer.Len() == 0 {
		b.Fatal("span tracer recorded nothing")
	}
}

// BenchmarkEndToEndFetchDisguised measures fetches answered through the
// always-delay countermeasure (hit + artificial delay event).
func BenchmarkEndToEndFetchDisguised(b *testing.B) {
	manager, err := core.NewDelayManager(core.NewContentSpecificDelay())
	if err != nil {
		b.Fatal(err)
	}
	sim, consumer, producer := benchTopology(b, manager)
	d, err := ndn.NewData(ndn.MustParseName("/p/private/hot"), []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	d.Private = true
	if err := producer.Publish(d); err != nil {
		b.Fatal(err)
	}
	consumer.FetchName(ndn.MustParseName("/p/private/hot"), func(FetchResult) {})
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumer.FetchName(ndn.MustParseName("/p/private/hot"), func(FetchResult) {})
		sim.Run()
	}
}

// BenchmarkInterestPath measures one interest→data exchange through the
// forwarder's table mechanics: CS and PIT share one composite table, the
// interest pays a single hash probe (ProbeName → MatchProbed →
// InsertProbed) and the Data satisfies by the PIT token it carried back.
func BenchmarkInterestPath(b *testing.B) {
	store := cache.MustNewStore(256, cache.NewLRU())
	pit := table.NewPITOn(store.Table())
	const nNames = 1024
	interests := make([]*ndn.Interest, nNames)
	objects := make([]*ndn.Data, nNames)
	for i := range interests {
		name := ndn.MustParseName(fmt.Sprintf("/p/s%d/o%d", i%17, i))
		interests[i] = ndn.NewInterest(name, uint64(i)+1)
		d, err := ndn.NewData(name, []byte("x"))
		if err != nil {
			b.Fatal(err)
		}
		objects[i] = d
	}
	const face = table.FaceID(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % nNames
		interest, data := interests[i], objects[i]
		now := time.Duration(n)
		pr := store.ProbeName(interest.Name)
		if entry, found := store.MatchProbed(interest, &pr, now); found {
			store.Touch(entry.Data.Name)
			continue
		}
		_, tok := pit.InsertProbed(interest, face, now, &pr)
		if _, ok := pit.SatisfyByToken(data, tok, now); !ok {
			b.Fatal("pending entry vanished")
		}
		store.Insert(data, now, 0)
	}
}
