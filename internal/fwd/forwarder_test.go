package fwd

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// lanTopology wires the paper's Figure 1 setup: user U and adversary A on
// router R, producer P behind R, with the given link configs and cache
// manager on R.
type lanTopology struct {
	sim      *netsim.Simulator
	user     *Consumer
	adv      *Consumer
	router   *Forwarder
	producer *Producer
}

func buildLAN(t *testing.T, manager core.CacheManager, edge, backbone netsim.LinkConfig) *lanTopology {
	t.Helper()
	sim := netsim.New(1)

	router, err := NewRouter(sim, "R", 0, manager)
	if err != nil {
		t.Fatal(err)
	}
	// Measuring hosts carry no local cache (see NewBareHost).
	uHost, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	aHost, err := NewBareHost(sim, "A")
	if err != nil {
		t.Fatal(err)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}

	uFace, _, _, err := Connect(sim, uHost, router, edge)
	if err != nil {
		t.Fatal(err)
	}
	aFace, _, _, err := Connect(sim, aHost, router, edge)
	if err != nil {
		t.Fatal(err)
	}
	rFace, _, _, err := Connect(sim, router, pHost, backbone)
	if err != nil {
		t.Fatal(err)
	}

	prefix := ndn.MustParseName("/p")
	if err := uHost.RegisterPrefix(prefix, uFace); err != nil {
		t.Fatal(err)
	}
	if err := aHost.RegisterPrefix(prefix, aFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(prefix, rFace); err != nil {
		t.Fatal(err)
	}

	signer, err := ndn.NewSigner("/p", []byte("producer-key"))
	if err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(pHost, prefix, signer)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewConsumer(uHost)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewConsumer(aHost)
	if err != nil {
		t.Fatal(err)
	}
	return &lanTopology{sim: sim, user: user, adv: adv, router: router, producer: producer}
}

func fastEthernet() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.UniformJitter{Base: 300 * time.Microsecond, Jitter: 200 * time.Microsecond},
		Bandwidth: 12_500_000, // 100 Mb/s
	}
}

func backbone() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.LogNormalJitter{Base: 2 * time.Millisecond, MedianJitter: 500 * time.Microsecond, Sigma: 0.5},
		Bandwidth: 125_000_000,
	}
}

func publish(t *testing.T, p *Producer, name string, private bool) *ndn.Data {
	t.Helper()
	d, err := ndn.NewData(ndn.MustParseName(name), []byte("content of "+name))
	if err != nil {
		t.Fatal(err)
	}
	d.Private = private
	if err := p.Publish(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := New(Config{Sim: netsim.New(1)}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestEndToEndFetch(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	publish(t, topo.producer, "/p/hello", false)

	var got FetchResult
	topo.user.FetchName(ndn.MustParseName("/p/hello"), func(r FetchResult) { got = r })
	topo.sim.Run()

	if got.TimedOut || got.Data == nil {
		t.Fatalf("fetch failed: %+v", got)
	}
	if string(got.Data.Payload) != "content of /p/hello" {
		t.Errorf("payload = %q", got.Data.Payload)
	}
	if got.RTT <= 0 {
		t.Errorf("RTT = %v", got.RTT)
	}
	if got.Data.Producer != "/p" {
		t.Errorf("producer = %q, want /p (signed)", got.Data.Producer)
	}
}

func TestSecondFetchIsCacheHit(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	publish(t, topo.producer, "/p/doc", false)

	var first, second FetchResult
	topo.user.FetchName(ndn.MustParseName("/p/doc"), func(r FetchResult) { first = r })
	topo.sim.Run()
	topo.adv.FetchName(ndn.MustParseName("/p/doc"), func(r FetchResult) { second = r })
	topo.sim.Run()

	if first.TimedOut || second.TimedOut {
		t.Fatalf("fetch timed out: %+v %+v", first, second)
	}
	if second.RTT >= first.RTT {
		t.Errorf("cache hit RTT %v not below miss RTT %v", second.RTT, first.RTT)
	}
	stats := topo.router.Stats()
	if stats.CacheHits != 1 {
		t.Errorf("router CacheHits = %d, want 1", stats.CacheHits)
	}
	if topo.producer.Served() != 1 {
		t.Errorf("producer Served = %d, want 1", topo.producer.Served())
	}
}

func TestProbeWireClassifiesFromRawWire(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	publish(t, topo.producer, "/p/doc", false)
	wire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/p/doc"), 99))

	// Cold tables: neither cached nor pending.
	if cached, pending := topo.router.ProbeWire(wire, topo.sim.Now()); cached || pending {
		t.Fatalf("cold probe = (%v, %v), want (false, false)", cached, pending)
	}

	// Probe mid-flight: by 1.5ms the user's interest has reached R
	// (edge ≤ 0.5ms + processing) but the producer's data has not
	// returned (backbone ≥ 2ms each way), so the name is pending.
	var midCached, midPending bool
	topo.user.FetchName(ndn.MustParseName("/p/doc"), func(FetchResult) {})
	topo.sim.Schedule(1500*time.Microsecond, func() {
		midCached, midPending = topo.router.ProbeWire(wire, topo.sim.Now())
	})
	topo.sim.Run()
	if midCached || !midPending {
		t.Errorf("mid-flight probe = (%v, %v), want (false, true)", midCached, midPending)
	}

	// After the fetch completes the content is cached and the PIT entry
	// is gone.
	if cached, pending := topo.router.ProbeWire(wire, topo.sim.Now()); !cached || pending {
		t.Errorf("post-fetch probe = (%v, %v), want (true, false)", cached, pending)
	}

	// Malformed wire classifies as neither, never panics.
	if cached, pending := topo.router.ProbeWire([]byte{0xFF, 0x00}, topo.sim.Now()); cached || pending {
		t.Errorf("malformed probe = (%v, %v), want (false, false)", cached, pending)
	}
	// So does /p/doc with "doc"'s length in three bytes: a name has one
	// encoding, and the decoders reject every other.
	name := []byte{0x08, 0x01, 'p', 0x08, 0xFD, 0x00, 0x03, 'd', 'o', 'c'}
	inner := append(append([]byte{0x07, byte(len(name))}, name...), 0x0A, 0x01, 99)
	longLength := append([]byte{0x05, byte(len(inner))}, inner...)
	if cached, pending := topo.router.ProbeWire(longLength, topo.sim.Now()); cached || pending {
		t.Errorf("probe of a non-minimal encoding = (%v, %v), want (false, false)", cached, pending)
	}

	// The probe sees every name the tables hold, however long.
	long := publish(t, topo.producer, "/p"+strings.Repeat("/c", 40), false).Name
	longWire := ndn.EncodeInterest(ndn.NewInterest(long, 100))
	topo.user.FetchName(long, func(FetchResult) {})
	topo.sim.Run()
	if _, found := topo.router.Store().Exact(long, topo.sim.Now()); !found {
		t.Fatalf("%d-component name not cached after its fetch", long.Len())
	}
	if cached, pending := topo.router.ProbeWire(longWire, topo.sim.Now()); !cached || pending {
		t.Errorf("%d-component probe = (%v, %v), want (true, false)", long.Len(), cached, pending)
	}
}

func TestFetchMissingContentTimesOut(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	interest := ndn.NewInterest(ndn.MustParseName("/p/ghost"), 7)
	interest.Lifetime = 100 * time.Millisecond
	var got FetchResult
	topo.adv.Fetch(interest, func(r FetchResult) { got = r })
	topo.sim.Run()
	if !got.TimedOut {
		t.Errorf("expected timeout, got %+v", got)
	}
}

func TestTimedOutFetchLeavesNoWaiter(t *testing.T) {
	// A fetch whose interest is lost must leave the consumer's pending
	// set when its lifetime expires — under loss every unanswered name
	// would otherwise pin a map entry and its handler forever — without
	// disturbing other waiters for the same name.
	sim := netsim.New(3)
	chain := buildURP(t, sim, nil)
	consumer := chain.consumer
	name := publish(t, chain.producer, "/p/lossy", false).Name

	dropInterests := true
	chain.edge.SetFaultInjector(func(pkt any) bool {
		_, isInterest := pkt.(*ndn.Interest)
		return isInterest && dropInterests
	})
	lost := ndn.NewInterest(name, 0)
	lost.Lifetime = 50 * time.Millisecond
	var first, second []FetchResult
	consumer.Fetch(lost, func(r FetchResult) { first = append(first, r) })
	sim.Run()
	if len(first) != 1 || !first[0].TimedOut {
		t.Fatalf("lost interest: results %+v, want one timeout", first)
	}
	if n := consumer.pending.Len(); n != 0 {
		t.Fatalf("%d names still pending after the only waiter timed out", n)
	}

	// Three waiters on one name, the middle one with a lifetime shorter
	// than the round trip: it times out alone, the other two still get
	// the Data, in the order they asked.
	dropInterests = false
	first = nil
	hasty := ndn.NewInterest(name, 0)
	hasty.Lifetime = 150 * time.Microsecond
	var order []int
	for i := 0; i < 2; i++ {
		consumer.Fetch(ndn.NewInterest(name, 0), func(r FetchResult) {
			second = append(second, r)
			order = append(order, i)
		})
		if i == 0 {
			consumer.Fetch(hasty, func(r FetchResult) { first = append(first, r) })
		}
	}
	sim.Run()
	if len(first) != 1 || !first[0].TimedOut {
		t.Errorf("short-lived waiter: results %+v, want one timeout", first)
	}
	if len(second) != 2 || second[0].TimedOut || second[1].TimedOut || !second[0].Data.Name.Equal(name) {
		t.Errorf("other fetches of the same name: results %+v, want the Data once each", second)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("waiters answered in order %v, want registration order [0 1]", order)
	}
	if n := consumer.pending.Len(); n != 0 {
		t.Errorf("%d names still pending at the end", n)
	}
}

func TestForwardedDataAliasingContract(t *testing.T) {
	// Forwarding hops copy the Data header and share the payload, and R's
	// store keeps the packet that arrived; the deep copies sit at the
	// boundaries to application buffers. So the producer scribbling over
	// its own buffer after Publish changes nothing R serves, and a hit
	// stamps the requester's token on a copy, never on the cached packet.
	sim := netsim.New(1)
	chain := buildURP(t, sim, nil)
	// Watch the U — R link: the interests U sends and the Data R answers.
	var sentInterest *ndn.Interest
	var sentData *ndn.Data
	chain.edge.SetFaultInjector(func(pkt any) bool {
		switch p := pkt.(type) {
		case *ndn.Interest:
			sentInterest = p
		case *ndn.Data:
			sentData = p
		}
		return false
	})
	name := ndn.MustParseName("/p/immutable")
	want := []byte("published bytes")
	buf := append([]byte(nil), want...)
	if err := chain.producer.Publish(&ndn.Data{Name: name, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	var got []FetchResult
	fetch := func() {
		chain.consumer.FetchName(name, func(r FetchResult) { got = append(got, r) })
		sim.Run()
	}
	fetch() // a miss through to P
	entry, found := chain.router.Store().Exact(name, sim.Now())
	if !found {
		t.Fatal("R does not hold the content")
	}
	cached := *entry.Data
	fetch() // a hit at R
	if served, hits := chain.producer.Served(), chain.router.Stats().CacheHits; served != 1 || hits != 1 {
		t.Fatalf("producer served %d and R hit %d, want 1 and 1", served, hits)
	}
	for i, r := range got {
		if r.TimedOut || !bytes.Equal(r.Data.Payload, want) {
			t.Fatalf("fetch %d: %+v, want payload %q", i, r, want)
		}
	}
	if !reflect.DeepEqual(*entry.Data, cached) || &entry.Data.Payload[0] != &cached.Payload[0] {
		t.Errorf("the hit wrote to R's cached packet: %+v, was %+v", *entry.Data, cached)
	}
	if sentData == nil || sentData == entry.Data {
		t.Fatalf("R answered the hit with %p, want a copy of its cached packet %p", sentData, entry.Data)
	}
	if sentInterest == nil || sentInterest.PITToken == 0 {
		t.Fatalf("U sent %+v to R, want an interest carrying U's PIT token", sentInterest)
	}
	if sentData.PITToken != sentInterest.PITToken {
		t.Errorf("served copy carries PIT token %#x, want the requester's %#x", sentData.PITToken, sentInterest.PITToken)
	}
	if &sentData.Payload[0] != &entry.Data.Payload[0] {
		t.Error("a header-only copy shares the cached payload; R deep-copied on the serve path")
	}
}

func TestInterestAggregation(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	publish(t, topo.producer, "/p/live", false)

	results := 0
	topo.user.FetchName(ndn.MustParseName("/p/live"), func(FetchResult) { results++ })
	topo.adv.FetchName(ndn.MustParseName("/p/live"), func(FetchResult) { results++ })
	topo.sim.Run()

	if results != 2 {
		t.Fatalf("results = %d, want 2", results)
	}
	if served := topo.producer.Served(); served != 1 {
		t.Errorf("producer answered %d interests, want 1 (collapsed)", served)
	}
	if agg := topo.router.Stats().Aggregated; agg != 1 {
		t.Errorf("router Aggregated = %d, want 1", agg)
	}
}

func TestScopeTwoProbe(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	publish(t, topo.producer, "/p/item", false)

	// scope=2 for uncached content: interest must die at R (entity 2).
	probe := ndn.NewInterest(ndn.MustParseName("/p/item"), 0).WithScope(ndn.ScopeNextHop)
	probe.Lifetime = 200 * time.Millisecond
	var miss FetchResult
	topo.adv.Fetch(probe, func(r FetchResult) { miss = r })
	topo.sim.Run()
	if !miss.TimedOut {
		t.Fatalf("scope-2 probe for uncached content should time out, got %+v", miss)
	}
	if topo.producer.Served() != 0 {
		t.Error("scope-2 interest leaked past the first-hop router")
	}

	// Cache the content via U, then the scope-2 probe succeeds.
	topo.user.FetchName(ndn.MustParseName("/p/item"), func(FetchResult) {})
	topo.sim.Run()
	probe2 := ndn.NewInterest(ndn.MustParseName("/p/item"), 0).WithScope(ndn.ScopeNextHop)
	probe2.Lifetime = 200 * time.Millisecond
	var hit FetchResult
	topo.adv.Fetch(probe2, func(r FetchResult) { hit = r })
	topo.sim.Run()
	if hit.TimedOut || hit.Data == nil {
		t.Fatalf("scope-2 probe for cached content failed: %+v", hit)
	}
	if topo.router.Stats().ScopeDropped == 0 {
		t.Error("ScopeDropped not counted")
	}
}

func TestAlwaysDelayHidesCacheState(t *testing.T) {
	strategy := NewContentSpecific(t)
	manager, err := core.NewDelayManager(strategy)
	if err != nil {
		t.Fatal(err)
	}
	topo := buildLAN(t, manager, fastEthernet(), backbone())
	publish(t, topo.producer, "/p/private/doc", true)

	name := ndn.MustParseName("/p/private/doc")
	var missRTT, hitRTT time.Duration
	topo.user.FetchName(name, func(r FetchResult) { missRTT = r.RTT })
	topo.sim.Run()
	topo.adv.FetchName(name, func(r FetchResult) { hitRTT = r.RTT })
	topo.sim.Run()

	if missRTT == 0 || hitRTT == 0 {
		t.Fatal("fetches did not complete")
	}
	// The disguised hit must not be visibly faster than the real miss;
	// the router replays γ_C, so only edge-link jitter differs.
	if hitRTT < missRTT-2*time.Millisecond {
		t.Errorf("disguised hit RTT %v far below miss RTT %v — cache state leaks", hitRTT, missRTT)
	}
	if topo.router.Stats().DisguisedHits != 1 {
		t.Errorf("DisguisedHits = %d, want 1", topo.router.Stats().DisguisedHits)
	}
}

func NewContentSpecific(t *testing.T) core.DelayStrategy {
	t.Helper()
	return core.NewContentSpecificDelay()
}

func TestRandomCacheGeneratedMissReachesProducer(t *testing.T) {
	// With k_C forced high, probes on cached private content are
	// forwarded upstream: bandwidth is spent to disguise the hit.
	dist := core.NewNaiveK(1000)
	rng := netsim.New(7).Rand()
	manager, err := core.NewRandomCache(dist, rng)
	if err != nil {
		t.Fatal(err)
	}
	topo := buildLAN(t, manager, fastEthernet(), backbone())
	publish(t, topo.producer, "/p/private/x", true)

	name := ndn.MustParseName("/p/private/x")
	for i := 0; i < 3; i++ {
		topo.adv.FetchName(name, func(FetchResult) {})
		topo.sim.Run()
	}
	if served := topo.producer.Served(); served != 3 {
		t.Errorf("producer Served = %d, want 3 (every probe disguised)", served)
	}
	if gm := topo.router.Stats().GeneratedMisses; gm != 2 {
		t.Errorf("GeneratedMisses = %d, want 2 (first fetch is a real miss)", gm)
	}
}

func TestConsumerPrivacyBitMarksCache(t *testing.T) {
	manager, err := core.NewDelayManager(core.NewContentSpecificDelay())
	if err != nil {
		t.Fatal(err)
	}
	topo := buildLAN(t, manager, fastEthernet(), backbone())
	publish(t, topo.producer, "/p/page", false) // producer does NOT mark it

	name := ndn.MustParseName("/p/page")
	interest := ndn.NewInterest(name, 0).WithPrivacy(ndn.PrivacyRequested)
	topo.user.Fetch(interest, func(FetchResult) {})
	topo.sim.Run()

	entry, found := topo.router.Store().Exact(name, topo.sim.Now())
	if !found {
		t.Fatal("content not cached")
	}
	if !entry.Private {
		t.Error("consumer privacy bit did not mark the cache entry")
	}

	// A privacy-bit probe must now be disguised.
	probe := ndn.NewInterest(name, 0).WithPrivacy(ndn.PrivacyRequested)
	topo.adv.Fetch(probe, func(FetchResult) {})
	topo.sim.Run()
	if topo.router.Stats().DisguisedHits != 1 {
		t.Errorf("DisguisedHits = %d, want 1", topo.router.Stats().DisguisedHits)
	}
}

func TestNonPrivateTriggerInForwarder(t *testing.T) {
	manager, err := core.NewDelayManager(core.NewContentSpecificDelay())
	if err != nil {
		t.Fatal(err)
	}
	topo := buildLAN(t, manager, fastEthernet(), backbone())
	publish(t, topo.producer, "/p/page", false)

	name := ndn.MustParseName("/p/page")
	// U fetches privately; Adv probes without privacy twice. Per the
	// trigger rule the first plain interest flips the content to
	// non-private, so Adv's second probe is an undisguised hit and
	// learns nothing (both probes look like what they'd be if U had
	// never fetched).
	topo.user.Fetch(ndn.NewInterest(name, 0).WithPrivacy(ndn.PrivacyRequested), func(FetchResult) {})
	topo.sim.Run()
	topo.adv.FetchName(name, func(FetchResult) {})
	topo.sim.Run()
	topo.adv.FetchName(name, func(FetchResult) {})
	topo.sim.Run()

	stats := topo.router.Stats()
	if stats.CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2 (trigger + post-trigger)", stats.CacheHits)
	}
	if stats.DisguisedHits != 0 {
		t.Errorf("DisguisedHits = %d, want 0", stats.DisguisedHits)
	}
}

func TestUnpredictableNamesBlockProbing(t *testing.T) {
	topo := buildLAN(t, core.NewNoPrivacy(), fastEthernet(), backbone())
	secret, err := ndn.NewSharedSecret([]byte("u-and-p"))
	if err != nil {
		t.Fatal(err)
	}
	base := ndn.MustParseName("/p/call/0")
	randName := secret.UnpredictableName(base, 1)
	d, err := ndn.NewData(randName, []byte("voice frame"))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.producer.Publish(d); err != nil {
		t.Fatal(err)
	}

	// U (who knows the secret) fetches it; it is now in R's cache.
	var uRes FetchResult
	topo.user.FetchName(randName, func(r FetchResult) { uRes = r })
	topo.sim.Run()
	if uRes.TimedOut {
		t.Fatal("legitimate fetch timed out")
	}

	// Adv probes the base prefix: the cached rand-named content must
	// not be served (footnote 5), and the producer's repo enforces the
	// same rule, so the probe times out.
	probe := ndn.NewInterest(base, 0)
	probe.Lifetime = 200 * time.Millisecond
	var aRes FetchResult
	topo.adv.Fetch(probe, func(r FetchResult) { aRes = r })
	topo.sim.Run()
	if !aRes.TimedOut {
		t.Errorf("prefix probe retrieved rand-named content: %+v", aRes)
	}
}

func TestLossRecoveryFromRouterCache(t *testing.T) {
	// Section V-A rationale: when the data packet is lost on the edge
	// link, the re-expressed interest is satisfied from R's cache
	// instead of traveling to the far-away producer again.
	sim := netsim.New(11)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}
	uFace, _, edge, err := Connect(sim, host, router, fastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	rFace, _, _, err := Connect(sim, router, pHost, netsim.LinkConfig{Latency: netsim.Fixed(40 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	prefix := ndn.MustParseName("/p")
	if err := host.RegisterPrefix(prefix, uFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(prefix, rFace); err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(pHost, prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, producer, "/p/frame", false)
	consumer, err := NewConsumer(host)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministically lose the first data packet crossing the edge
	// link: R has cached it, the consumer hasn't seen it.
	droppedOne := false
	edge.SetFaultInjector(func(pkt any) bool {
		if _, isData := pkt.(*ndn.Data); isData && !droppedOne {
			droppedOne = true
			return true
		}
		return false
	})

	interest := ndn.NewInterest(ndn.MustParseName("/p/frame"), 0)
	interest.Lifetime = 200 * time.Millisecond
	var final FetchResult
	var retries int
	consumer.FetchReliable(interest, 3, func(r FetchResult, used int) { final, retries = r, used })
	sim.Run()

	if final.TimedOut {
		t.Fatalf("reliable fetch failed after retries: %+v", final)
	}
	if retries != 1 {
		t.Errorf("retries = %d, want 1", retries)
	}
	if !droppedOne {
		t.Fatal("fault injector never fired")
	}
	// The retry is served from R's cache: edge RTT only, far below the
	// 80ms+ producer round trip.
	if final.RTT > 5*time.Millisecond {
		t.Errorf("retry RTT = %v, want fast cache hit", final.RTT)
	}
	if served := producer.Served(); served != 1 {
		t.Errorf("producer Served = %d, want 1 (recovery from cache)", served)
	}
}

func TestNoRouteDropped(t *testing.T) {
	sim := netsim.New(1)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	uFace, _, _, err := Connect(sim, host, router, fastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	if err := host.RegisterPrefix(ndn.MustParseName("/"), uFace); err != nil {
		t.Fatal(err)
	}
	consumer, err := NewConsumer(host)
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/nowhere"), 0)
	interest.Lifetime = 50 * time.Millisecond
	var res FetchResult
	consumer.Fetch(interest, func(r FetchResult) { res = r })
	sim.Run()
	if !res.TimedOut {
		t.Fatalf("fetch with no route returned data")
	}
	if router.Stats().NoRouteDropped != 1 {
		t.Errorf("NoRouteDropped = %d, want 1", router.Stats().NoRouteDropped)
	}
}

// An interest whose only next hop is the face it arrived on has a route
// but goes nowhere: it is neither forwarded nor dropped for want of a
// route, and its hop span still ends "forward".
func TestArrivalFaceOnlyNextHopIsNotNoRoute(t *testing.T) {
	sim := netsim.New(1)
	rec, tracer := telemetry.NewRecorder(), span.NewTracer(1)
	sim.SetTelemetry(telemetry.NewRegistry(), rec)
	sim.SetSpans(tracer)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	uFace, rFace, _, err := Connect(sim, host, router, fastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	if err := host.RegisterPrefix(ndn.MustParseName("/"), uFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(ndn.MustParseName("/"), rFace); err != nil {
		t.Fatal(err)
	}
	consumer, err := NewConsumer(host)
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/back"), 0)
	interest.Lifetime = 50 * time.Millisecond
	consumer.Fetch(interest, func(FetchResult) {})
	sim.Run()

	if s := router.Stats(); s.InterestsReceived != 1 || s.Forwarded != 0 || s.NoRouteDropped != 0 {
		t.Errorf("router stats %+v, want 1 interest, 0 forwarded, 0 no-route drops", s)
	}
	for _, ev := range rec.Events() {
		if ev.Node == "R" && (ev.Type == telemetry.EvInterestDrop || ev.Type == telemetry.EvInterestForward) {
			t.Errorf("router event %+v, want none for the interest's fate", ev)
		}
	}
	hops := 0
	for _, r := range tracer.Records() {
		if r.Node == "R" && r.Kind == span.KindHop {
			hops++
			if r.Action != "forward" {
				t.Errorf("router hop span action %q, want forward", r.Action)
			}
		}
	}
	if hops != 1 {
		t.Errorf("%d router hop spans, want 1", hops)
	}
}

func TestRegisterPrefixUnknownFace(t *testing.T) {
	sim := netsim.New(1)
	f, err := New(Config{Name: "n", Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterPrefix(ndn.MustParseName("/x"), 99); err == nil {
		t.Error("unknown face accepted")
	}
}

func TestProducerRejectsForeignContent(t *testing.T) {
	sim := netsim.New(1)
	host, err := NewHost(sim, "P", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProducer(host, ndn.MustParseName("/mine"), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ndn.NewData(ndn.MustParseName("/theirs/x"), []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(d); err == nil {
		t.Error("foreign content accepted")
	}
}

func TestProducerPublishSegments(t *testing.T) {
	sim := netsim.New(1)
	host, err := NewHost(sim, "P", nil)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ndn.NewSigner("/v", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProducer(host, ndn.MustParseName("/v"), signer)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := p.PublishSegments(ndn.MustParseName("/v/movie"), make([]byte, 1000), 256, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Errorf("segments = %d, want 4", len(segs))
	}
	for i, s := range segs {
		if err := signer.Verify(s); err != nil {
			t.Errorf("segment %d not signed: %v", i, err)
		}
		if !s.Private {
			t.Errorf("segment %d lost privacy bit", i)
		}
	}
}

func TestCacheDisabledForwarder(t *testing.T) {
	// A forwarder with no Content Store (the trivial countermeasure)
	// forwards everything upstream; every fetch pays the full path.
	sim := netsim.New(1)
	router, err := New(Config{Name: "R", Sim: sim, ProcessingDelay: DefaultRouterProcessing})
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}
	uFace, _, _, err := Connect(sim, host, router, fastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	rFace, _, _, err := Connect(sim, router, pHost, netsim.LinkConfig{Latency: netsim.Fixed(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	prefix := ndn.MustParseName("/p")
	if err := host.RegisterPrefix(prefix, uFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(prefix, rFace); err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(pHost, prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, producer, "/p/x", false)
	consumer, err := NewConsumer(host)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		consumer.FetchName(ndn.MustParseName("/p/x"), func(FetchResult) {})
		sim.Run()
	}
	if served := producer.Served(); served != 3 {
		t.Errorf("producer Served = %d, want 3 (no caching anywhere on path... except hosts)", served)
	}
}

func TestPITCapacityLimitsFlooding(t *testing.T) {
	// An interest-flooding adversary fills the PIT with distinct
	// unsatisfiable names; with a bounded PIT the router refuses the
	// overflow instead of growing without bound, and honest traffic
	// resumes once entries expire.
	sim := netsim.New(21)
	router, err := New(Config{
		Name:            "R",
		Sim:             sim,
		ProcessingDelay: DefaultRouterProcessing,
		PITCapacity:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	advHost, err := NewBareHost(sim, "adv")
	if err != nil {
		t.Fatal(err)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}
	aFace, _, _, err := Connect(sim, advHost, router, netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	rFace, _, _, err := Connect(sim, router, pHost, netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if err := advHost.RegisterPrefix(ndn.MustParseName("/"), aFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(ndn.MustParseName("/"), rFace); err != nil {
		t.Fatal(err)
	}
	adv, err := NewConsumer(advHost)
	if err != nil {
		t.Fatal(err)
	}
	// Flood 50 distinct unsatisfiable names with short lifetimes.
	for i := 0; i < 50; i++ {
		interest := ndn.NewInterest(ndn.MustParseName(fmt.Sprintf("/flood/%d", i)), 0)
		interest.Lifetime = 200 * time.Millisecond
		adv.Fetch(interest, func(FetchResult) {})
	}
	sim.Run()
	stats := router.Stats()
	if stats.PITRejected == 0 {
		t.Fatal("bounded PIT never rejected during the flood")
	}
	if stats.PITRejected < 40 {
		t.Errorf("PITRejected = %d, want ≥ 40 of 50 (capacity 8)", stats.PITRejected)
	}

	// After expiry, honest traffic flows again.
	producer, err := NewProducer(pHost, ndn.MustParseName("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, producer, "/p/honest", false)
	var res FetchResult
	adv.FetchName(ndn.MustParseName("/p/honest"), func(r FetchResult) { res = r })
	sim.Run()
	if res.TimedOut {
		t.Error("honest fetch failed after flood expired")
	}
}

func TestDynamicDelayDecaysAtForwarder(t *testing.T) {
	// System-level check of the dynamic strategy: as a private content
	// is requested repeatedly, the artificial delay decays toward the
	// two-hop floor, so later consumers see faster (but never
	// floor-beating) responses.
	strategy, err := core.NewDynamicDelay(2*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := core.NewDelayManager(strategy)
	if err != nil {
		t.Fatal(err)
	}
	topo := buildLAN(t, manager, fastEthernet(), backbone())
	publish(t, topo.producer, "/p/private/hot", true)
	name := ndn.MustParseName("/p/private/hot")

	var rtts []time.Duration
	for i := 0; i < 12; i++ {
		var res FetchResult
		topo.adv.FetchName(name, func(r FetchResult) { res = r })
		topo.sim.Run()
		if res.TimedOut {
			t.Fatal("fetch timed out")
		}
		rtts = append(rtts, res.RTT)
	}
	// Later hits must be materially faster than the first disguised one
	// (popularity decays the delay)...
	if rtts[len(rtts)-1] >= rtts[1] {
		t.Errorf("dynamic delay did not decay: first hit %v, last %v", rtts[1], rtts[len(rtts)-1])
	}
	// ...but never beat the two-hop floor.
	for i, rtt := range rtts[1:] {
		if rtt < 2*time.Millisecond {
			t.Errorf("hit %d RTT %v below the floor", i+1, rtt)
		}
	}
}

func TestChainTopology(t *testing.T) {
	sim := netsim.New(5)
	nodes := make([]*Forwarder, 0, 4)
	host, err := NewBareHost(sim, "U")
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, host)
	for i := 0; i < 2; i++ {
		r, err := NewRouter(sim, fmt.Sprintf("R%d", i), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, r)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, pHost)

	if err := Chain(sim, nodes, netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)}, "/p"); err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(pHost, ndn.MustParseName("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, producer, "/p/far", false)
	consumer, err := NewConsumer(host)
	if err != nil {
		t.Fatal(err)
	}
	var res FetchResult
	consumer.FetchName(ndn.MustParseName("/p/far"), func(r FetchResult) { res = r })
	sim.Run()
	if res.TimedOut || res.Data == nil {
		t.Fatalf("chain fetch failed: %+v", res)
	}
	// 3 links × 1ms × 2 directions plus processing: at least 6ms.
	if res.RTT < 6*time.Millisecond {
		t.Errorf("RTT = %v, want ≥ 6ms over 3 hops", res.RTT)
	}
	if err := Chain(sim, nodes[:1], netsim.LinkConfig{Latency: netsim.Fixed(0)}); err == nil {
		t.Error("single-node chain accepted")
	}
}
