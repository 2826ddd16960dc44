package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// TestCompiledTraceMatchesGenerator pins the compiled trace to the
// stream it replaces: request for request, the cursor yields what
// Generator.Next yields, plus the prebuilt Data for that object.
func TestCompiledTraceMatchesGenerator(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		requests int
		fraction float64
	}{
		{1, 1, 0.1},
		{1, 3000, 0.1},
		{2, 5000, 0},
		{7, 5000, 0.4},
		{-3, 800, 1},
	} {
		cfg := DefaultGeneratorConfig(tc.seed, tc.requests)
		cfg.PrivateFraction = tc.fraction
		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := compiled.requests()
		for i := 0; ; i++ {
			want, wantMore := gen.Next()
			got, gotMore, err := next()
			if err != nil {
				t.Fatal(err)
			}
			if gotMore != wantMore {
				t.Fatalf("%+v: request %d: compiled more=%t, generator more=%t", tc, i, gotMore, wantMore)
			}
			if !wantMore {
				break
			}
			fetched := got.Fetched
			if fetched == nil || !fetched.Name.Equal(want.Name) || fetched.Private != want.Private || string(fetched.Payload) != "x" {
				t.Fatalf("%+v: request %d: prebuilt data %v does not answer %s (private=%t)", tc, i, fetched, want.Name, want.Private)
			}
			got.Fetched = nil
			if got.At != want.At || got.User != want.User || got.Object != want.Object ||
				got.Private != want.Private || !got.Name.Equal(want.Name) || got.Name.String() != want.Name.String() {
				t.Fatalf("%+v: request %d: compiled %+v, generator %+v", tc, i, got, want)
			}
		}
	}
	if _, err := Compile(GeneratorConfig{}); err == nil {
		t.Error("Compile accepted an invalid configuration")
	}
}

// replayArtifacts runs one instrumented replay and returns everything it
// can be observed by: the statistics, the event trace as NDJSON and the
// residency spans as NDJSON.
func replayArtifacts(t *testing.T, replay func(ReplayConfig) (ReplayStats, error), cfg ReplayConfig) (ReplayStats, []byte, []byte) {
	t.Helper()
	var events bytes.Buffer
	sink := telemetry.NewTraceWriter(&events)
	tracer := span.NewTracer(11)
	cfg.Metrics, cfg.Trace, cfg.Spans = telemetry.NewRegistry(), sink, tracer
	stats, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	if err := span.WriteNDJSON(&spans, tracer.Records()); err != nil {
		t.Fatal(err)
	}
	return stats, events.Bytes(), spans.Bytes()
}

// testManagers builds the evaluation's cache managers afresh, with the
// randomized one seeded identically on every call.
func testManagers(t *testing.T) map[string]func() core.CacheManager {
	t.Helper()
	alpha, err := core.GeometricAlphaForEpsilon(5, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := core.NewGeometricUnbounded(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() core.CacheManager{
		"no-privacy": func() core.CacheManager { return core.NewNoPrivacy() },
		"always-delay": func() core.CacheManager {
			m, err := core.NewDelayManager(core.NewContentSpecificDelay())
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"random-cache": func() core.CacheManager {
			m, err := core.NewRandomCache(dist, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
}

// TestCompiledReplaysDoNotWritePackets pins the sharing a sweep relies
// on: every store that caches a compiled object keeps that object's own
// Data, so concurrent replays of one trace must leave every packet
// exactly as Compile built it. Run under -race, a write to a shared
// packet from any replay is also a reported data race.
func TestCompiledReplaysDoNotWritePackets(t *testing.T) {
	cfg := DefaultGeneratorConfig(3, 20000)
	cfg.PrivateFraction = 0.3
	compiled, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]ndn.Data, len(compiled.objects))
	for i := range compiled.objects {
		before[i] = compiled.objects[i].data
	}
	managers := testManagers(t)
	grouped := func() core.CacheManager {
		m, err := core.NewGroupedRandomCache(core.NewNaiveK(3), rand.New(rand.NewSource(7)), core.PrefixGroup(2))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cells := []ReplayConfig{
		{CacheSize: 0, Manager: managers["no-privacy"]()},
		{CacheSize: 500, Manager: managers["always-delay"]()},
		{CacheSize: 200, Manager: managers["random-cache"]()},
		{CacheSize: 50, Manager: grouped()},
	}
	stats := make([]ReplayStats, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = compiled.Replay(cells[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cells[i].Manager.Name(), err)
		}
		if stats[i].Requests != uint64(cfg.Requests) || stats[i].RealMisses == 0 {
			t.Errorf("%s: %+v, want %d requests with real misses", cells[i].Manager.Name(), stats[i], cfg.Requests)
		}
	}
	if stats[2].GeneratedMisses == 0 || stats[3].GeneratedMisses == 0 {
		t.Errorf("random-cache %+v, grouped %+v: want generated misses refreshing cached packets", stats[2], stats[3])
	}
	for i := range compiled.objects {
		if got := &compiled.objects[i].data; !reflect.DeepEqual(*got, before[i]) {
			t.Fatalf("object %d: packet %+v after the replays, compiled as %+v", i, *got, before[i])
		}
	}
}

// TestCompiledReplayMatchesGeneratorReplay is the byte-identity
// guarantee at its source: replaying the compiled trace is
// indistinguishable from Replay over the generator — statistics, event
// trace and residency spans — for every manager, bounded and unbounded
// stores and each eviction policy.
func TestCompiledReplayMatchesGeneratorReplay(t *testing.T) {
	cfg := DefaultGeneratorConfig(9, 6000)
	cfg.PrivateFraction = 0.2
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromGenerator := func(rc ReplayConfig) (ReplayStats, error) { return Replay(gen, rc) }
	for name, manager := range testManagers(t) {
		for _, shape := range []struct {
			size   int
			policy string
		}{{0, ""}, {300, "lru"}, {300, "fifo"}, {40, "lfu"}} {
			rc := ReplayConfig{CacheSize: shape.size, Policy: shape.policy}
			rc.Manager = manager()
			wantStats, wantEvents, wantSpans := replayArtifacts(t, fromGenerator, rc)
			rc.Manager = manager()
			gotStats, gotEvents, gotSpans := replayArtifacts(t, compiled.Replay, rc)
			if len(wantEvents) == 0 || len(wantSpans) == 0 {
				t.Fatalf("%s %+v: reference replay recorded no trace or no spans", name, shape)
			}
			if gotStats != wantStats {
				t.Errorf("%s %+v: stats %+v, generator replay %+v", name, shape, gotStats, wantStats)
			}
			if !bytes.Equal(gotEvents, wantEvents) {
				t.Errorf("%s %+v: event trace NDJSON differs from the generator replay", name, shape)
			}
			if !bytes.Equal(gotSpans, wantSpans) {
				t.Errorf("%s %+v: residency span NDJSON differs from the generator replay", name, shape)
			}
		}
	}
}
