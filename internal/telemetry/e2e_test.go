// End-to-end tests live in an external test package: they drive the
// attack scenarios (which import fwd, which imports telemetry) and would
// otherwise create an import cycle.
package telemetry_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// instrumentedLAN runs the Figure 3(a) scenario with telemetry attached
// and returns the attack result plus the rendered metrics and trace.
func instrumentedLAN(t *testing.T) (*attack.Result, []byte, []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var traceBuf bytes.Buffer
	tw := telemetry.NewTraceWriter(&traceBuf)
	res, err := attack.RunLAN(attack.ScenarioConfig{
		Seed:    7,
		Objects: 12,
		Runs:    2,
		Observe: func(run int, sim *netsim.Simulator) {
			sim.SetTelemetry(reg, tw)
			telemetry.Emit(tw, telemetry.Event{
				At:   int64(sim.Now()),
				Type: telemetry.EvRunStart,
				Run:  run,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return res, prom.Bytes(), traceBuf.Bytes()
}

// TestSameSeedRunsProduceIdenticalTelemetry is the headline determinism
// guarantee: two full simulations with the same seed must render
// byte-identical Prometheus exposition and NDJSON traces.
func TestSameSeedRunsProduceIdenticalTelemetry(t *testing.T) {
	res1, prom1, trace1 := instrumentedLAN(t)
	res2, prom2, trace2 := instrumentedLAN(t)
	if !bytes.Equal(prom1, prom2) {
		t.Error("same-seed runs rendered different Prometheus exposition")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("same-seed runs rendered different traces")
	}
	if res1.Accuracy != res2.Accuracy || !reflect.DeepEqual(res1.Hit, res2.Hit) {
		t.Error("same-seed runs measured different attack results")
	}
}

// TestTelemetryDoesNotPerturbSimulation compares an instrumented run
// against a bare one: attaching the registry and trace writer must not
// change a single sample, so enabling -metrics/-trace can never alter
// the science.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	instrumented, _, _ := instrumentedLAN(t)
	bare, err := attack.RunLAN(attack.ScenarioConfig{Seed: 7, Objects: 12, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(instrumented.Hit, bare.Hit) || !reflect.DeepEqual(instrumented.Miss, bare.Miss) {
		t.Fatal("telemetry changed the measured RTT samples")
	}
	if instrumented.Accuracy != bare.Accuracy || instrumented.Steps != bare.Steps {
		t.Fatal("telemetry changed accuracy or simulator step count")
	}
}

// TestTraceContentsCoverTheStack decodes an end-to-end trace and checks
// the record stream is well-formed and covers the layers the scenario
// exercises.
func TestTraceContentsCoverTheStack(t *testing.T) {
	_, _, traceBytes := instrumentedLAN(t)
	events, err := telemetry.DecodeTrace(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	if events[0].Type != telemetry.EvRunStart {
		t.Fatalf("trace must open with run_start, got %q", events[0].Type)
	}
	seen := make(map[string]int)
	for _, ev := range events {
		seen[ev.Type]++
		if ev.At < 0 {
			t.Fatalf("negative virtual timestamp in %#v", ev)
		}
	}
	for _, required := range []string{
		telemetry.EvRunStart,
		telemetry.EvInterestForward,
		telemetry.EvCSHit,
		telemetry.EvCSMiss,
		telemetry.EvCSInsert,
		telemetry.EvLinkTx,
		telemetry.EvProbe,
		telemetry.EvCMDecision,
	} {
		if seen[required] == 0 {
			t.Errorf("trace contains no %s events", required)
		}
	}
	if seen[telemetry.EvRunStart] != 2 {
		t.Errorf("expected 2 run_start records, got %d", seen[telemetry.EvRunStart])
	}
}

// TestMetricsAgreeWithResult cross-checks the consumers of the
// observation seam against each other and against ground truth. On the
// attack scenario every adversary probe appears in the trace and the
// router's undisguised hit counter is exported. On a LAN driven through
// every forwarding outcome it can produce, each forwarder stage must
// agree four ways on every node: the registry counter, the matching
// fwd.Stats field, the number of events of the stage's type, and — for
// traced stages — the number of spans of the stage's kind and action.
// A stage that one consumer records and another does not fails here.
func TestMetricsAgreeWithResult(t *testing.T) {
	res, prom, traceBytes := instrumentedLAN(t)
	events, err := telemetry.DecodeTrace(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, ev := range events {
		if ev.Type == telemetry.EvProbe {
			probes++
		}
	}
	if want := len(res.Hit) + len(res.Miss); probes != want {
		t.Errorf("trace has %d probe records, want %d (one per sample)", probes, want)
	}
	wantLine := []byte("fwd_cache_hits_total{node=\"R\"} ")
	if !bytes.Contains(prom, wantLine) {
		t.Errorf("exposition lacks the router hit counter:\n%s", prom)
	}

	nodes, reg, rec, tracer := stageLAN(t)
	type key struct{ node, kind, action string }
	eventCount, spanCount := make(map[key]uint64), make(map[key]uint64)
	// Each record counts under its action and, when it has one, under
	// "any action" too.
	count := func(m map[key]uint64, node, kind, action string) {
		m[key{node, kind, ""}]++
		if action != "" {
			m[key{node, kind, action}]++
		}
	}
	for _, ev := range rec.Events() {
		count(eventCount, ev.Node, ev.Type, ev.Action)
	}
	for _, r := range tracer.Records() {
		count(spanCount, r.Node, r.Kind, r.Action)
	}
	hits := func(s fwd.Stats) uint64 { return s.CacheHits + s.DisguisedHits + s.GeneratedMisses }
	stages := []struct {
		name    string
		stat    func(fwd.Stats) uint64
		counter string
		event   key // node left empty
		span    key
		// cs spans exist only where there is a Content Store to look up.
		needsStore bool
	}{
		{"interest", func(s fwd.Stats) uint64 { return s.InterestsReceived }, "fwd_interests_received_total", key{}, key{"", span.KindHop, ""}, false},
		{"data", func(s fwd.Stats) uint64 { return s.DataReceived }, "fwd_data_received_total", key{}, key{}, false},
		{"cs_miss", func(s fwd.Stats) uint64 { return s.RealMisses }, "fwd_real_misses_total", key{"", telemetry.EvCSMiss, ""}, key{"", span.KindCS, "miss"}, true},
		{"cs_hit", hits, "", key{"", telemetry.EvCSHit, ""}, key{"", span.KindCS, "hit"}, false},
		{"cm_decision", hits, "", key{"", telemetry.EvCMDecision, ""}, key{"", span.KindCM, ""}, false},
		{"serve", func(s fwd.Stats) uint64 { return s.CacheHits }, "fwd_cache_hits_total", key{"", telemetry.EvCMDecision, "serve"}, key{"", span.KindHop, "serve"}, false},
		{"delayed_serve", func(s fwd.Stats) uint64 { return s.DisguisedHits }, "fwd_disguised_hits_total", key{"", telemetry.EvCMDecision, "delayed-serve"}, key{"", span.KindHop, "delayed-serve"}, false},
		{"generated_miss", func(s fwd.Stats) uint64 { return s.GeneratedMisses }, "fwd_generated_misses_total", key{"", telemetry.EvCMDecision, "miss"}, key{"", span.KindCM, "miss"}, false},
		{"disk_read", func(s fwd.Stats) uint64 { return s.DiskHits }, "fwd_disk_hits_total", key{"", telemetry.EvCSDiskRead, ""}, key{"", span.KindDisk, ""}, false},
		{"aggregate", func(s fwd.Stats) uint64 { return s.Aggregated }, "fwd_aggregated_total", key{"", telemetry.EvInterestAggregate, ""}, key{"", span.KindPIT, "aggregate"}, false},
		{"forward", func(s fwd.Stats) uint64 { return s.Forwarded }, "fwd_forwarded_total", key{"", telemetry.EvInterestForward, ""}, key{"", span.KindHop, "forward"}, false},
		{"drop_scope", func(s fwd.Stats) uint64 { return s.ScopeDropped }, "fwd_dropped_scope_total", key{"", telemetry.EvInterestDrop, "scope"}, key{"", span.KindHop, "drop-scope"}, false},
		{"drop_dup_nonce", func(s fwd.Stats) uint64 { return s.DuplicatesDropped }, "fwd_dropped_dup_nonce_total", key{"", telemetry.EvInterestDrop, "dup_nonce"}, key{"", span.KindHop, "drop-dup-nonce"}, false},
		{"drop_pit_full", func(s fwd.Stats) uint64 { return s.PITRejected }, "fwd_dropped_pit_full_total", key{"", telemetry.EvInterestDrop, "pit_full"}, key{"", span.KindHop, "drop-pit-full"}, false},
		{"drop_no_route", func(s fwd.Stats) uint64 { return s.NoRouteDropped }, "fwd_dropped_no_route_total", key{"", telemetry.EvInterestDrop, "no_route"}, key{"", span.KindHop, "drop-no-route"}, false},
		{"unsolicited", func(s fwd.Stats) uint64 { return s.Unsolicited }, "fwd_unsolicited_data_total", key{"", telemetry.EvDataUnsolicited, ""}, key{}, false},
	}
	totals := make(map[string]uint64)
	for _, node := range nodes {
		stats := node.Stats()
		for _, st := range stages {
			want := st.stat(stats)
			totals[st.name] += want
			if st.counter != "" {
				if got := reg.Counter(telemetry.ID(st.counter, "node", node.Name())).Value(); got != want {
					t.Errorf("%s %s: counter %s = %d, fwd.Stats says %d", node.Name(), st.name, st.counter, got, want)
				}
			}
			if st.event.kind != "" {
				k := st.event
				k.node = node.Name()
				if got := eventCount[k]; got != want {
					t.Errorf("%s %s: %d %s events, fwd.Stats says %d", node.Name(), st.name, got, k.kind, want)
				}
			}
			if st.span.kind != "" && (!st.needsStore || node.Store() != nil) {
				k := st.span
				k.node = node.Name()
				if got := spanCount[k]; got != want {
					t.Errorf("%s %s: %d %s/%s spans, fwd.Stats says %d", node.Name(), st.name, got, k.kind, k.action, want)
				}
			}
		}
	}
	// The LAN must have driven the outcomes it claims to, or the
	// agreement above is vacuous.
	for _, name := range []string{"interest", "data", "cs_miss", "cs_hit", "serve", "generated_miss",
		"aggregate", "forward", "drop_scope", "drop_dup_nonce", "drop_no_route"} {
		if totals[name] == 0 {
			t.Errorf("the LAN never reached stage %s", name)
		}
	}
}

// stageLAN runs user U and adversary A on router R, producer P behind
// it, Random-Cache on R over half-private content, with registry, event
// trace and spans all attached. The traffic reaches every forwarding
// outcome the topology can produce: real misses, aggregation behind a
// pending fetch, served hits and hits disguised as generated misses, an
// interest dropped for its scope, a duplicate nonce and an unroutable
// name.
func stageLAN(t *testing.T) ([]*fwd.Forwarder, *telemetry.Registry, *telemetry.Recorder, *span.Tracer) {
	t.Helper()
	sim := netsim.New(7)
	reg, rec, tracer := telemetry.NewRegistry(), telemetry.NewRecorder(), span.NewTracer(7)
	sim.SetTelemetry(reg, rec)
	sim.SetSpans(tracer)
	dist, err := core.NewUniformK(4)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := core.NewRandomCache(dist, sim.Rand())
	if err != nil {
		t.Fatal(err)
	}
	router, err := fwd.NewRouter(sim, "R", 0, manager)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*fwd.Forwarder, 3)
	for i, name := range []string{"U", "A", "P"} {
		if hosts[i], err = fwd.NewBareHost(sim, name); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)}
	if err := fwd.Chain(sim, []*fwd.Forwarder{hosts[0], router, hosts[2]}, link, "/p"); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Chain(sim, []*fwd.Forwarder{hosts[1], router}, link, "/p"); err != nil {
		t.Fatal(err)
	}
	producer, err := fwd.NewProducer(hosts[2], ndn.MustParseName("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const objects = 8
	names := make([]ndn.Name, objects)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/p/o%d", i))
		d, err := ndn.NewData(names[i], []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		d.Private = i%2 == 0
		if err := producer.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	user, err := fwd.NewConsumer(hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	adv, err := fwd.NewConsumer(hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	ignore := func(fwd.FetchResult) {}
	for _, name := range names {
		// Both ask at once: R forwards the first and aggregates the second.
		user.FetchName(name, ignore)
		adv.FetchName(name, ignore)
		sim.Run()
	}
	for round := 0; round < 4; round++ {
		for _, name := range names {
			adv.FetchName(name, ignore)
			sim.Run()
		}
	}
	// Scope 2 lets the interest reach R and no further: uncached, it dies
	// there.
	adv.Fetch(ndn.NewInterest(ndn.MustParseName("/p/absent"), 0).WithScope(ndn.ScopeNextHop), ignore)
	// A repeated nonce is a loop to A's own PIT.
	looped := ndn.NewInterest(ndn.MustParseName("/p/looped"), 99)
	adv.Fetch(looped, ignore)
	adv.Fetch(looped, ignore)
	// Nothing routes /q.
	adv.FetchName(ndn.MustParseName("/q/nowhere"), ignore)
	sim.Run()
	return append(hosts, router), reg, rec, tracer
}
