package attack

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry/span"
)

// probeTruth is one probe fetch's causal label, read off its span
// trace: hit when a countermeasure decision served it from a cache,
// disk when a second-tier read served it.
type probeTruth struct {
	totalMS   float64
	hit, disk bool
}

// probeTruths labels every completed fetch issued at node, in issue
// order. The map is lookup-only; both walks follow record order.
func probeTruths(records []span.Record, node string) []probeTruth {
	byTrace := map[uint64]int{}
	var out []probeTruth
	for _, r := range records {
		if r.Kind == span.KindFetch && r.Trace != 0 && r.Node == node && r.Action != "timeout" {
			byTrace[r.Trace] = len(out)
			out = append(out, probeTruth{totalMS: float64(r.End-r.Start) / float64(time.Millisecond)})
		}
	}
	for _, r := range records {
		i, ok := byTrace[r.Trace]
		switch {
		case !ok:
		case r.Kind == span.KindCM && (r.Action == "serve" || r.Action == "delayed-serve"):
			out[i].hit = true
		case r.Kind == span.KindDisk:
			out[i].disk = true
		}
	}
	return out
}

// TestProbeGroundTruthLAN checks the prober's labels against causal
// ground truth: the span trace of a scenario run, exported to Chrome
// trace_event form and decoded back, says which probes a cache served,
// and the threshold classifier agrees with it at its own accuracy.
func TestProbeGroundTruthLAN(t *testing.T) {
	tracer := span.NewTracer(11)
	res, err := RunLAN(ScenarioConfig{Seed: 11, Objects: 40, Runs: 2, Spans: tracer})
	if err != nil {
		t.Fatal(err)
	}
	records := tracer.Records()
	if len(records) == 0 {
		t.Fatal("scenario produced no span records")
	}

	// The labels must survive the Chrome export round trip: the
	// ground-truth check below runs on decoded records, not the live
	// tracer.
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, records); err != nil {
		t.Fatal(err)
	}
	decoded, err := span.DecodeChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, decoded) {
		t.Fatal("chrome trace round trip altered span records")
	}

	truths := probeTruths(decoded, "A")
	wantProbes := len(res.Hit) + len(res.Miss)
	if len(truths) != wantProbes {
		t.Fatalf("ground truth saw %d probes, prober issued %d", len(truths), wantProbes)
	}
	hits, agree := 0, 0
	for i, p := range truths {
		if p.hit {
			hits++
		}
		if (p.totalMS <= res.Threshold) == p.hit {
			agree++
		} else {
			t.Logf("mismatch: probe %d rtt=%.3fms causal hit=%v", i, p.totalMS, p.hit)
		}
	}
	accuracy := float64(agree) / float64(len(truths))
	if hits != len(res.Hit) || len(truths)-hits != len(res.Miss) {
		t.Errorf("ground-truth classes %d hit / %d miss, prober labels %d/%d",
			hits, len(truths)-hits, len(res.Hit), len(res.Miss))
	}
	// On the LAN topology the threshold classifier is near-perfect, and
	// its span-scored accuracy must match the distribution-derived one.
	if accuracy < 0.99 {
		t.Errorf("span-scored accuracy = %g, want ≥ 0.99", accuracy)
	}
	if diff := math.Abs(accuracy - res.Accuracy); diff > 0.02 {
		t.Errorf("span-scored accuracy %g deviates from threshold accuracy %g by %g",
			accuracy, res.Accuracy, diff)
	}
}

// TestProbeGroundTruthCountermeasure checks the other direction: with
// Always-Delay active the classifier collapses toward a coin flip, and
// the span ground truth must report that collapse rather than mirror
// the (now wrong) predictions.
func TestProbeGroundTruthCountermeasure(t *testing.T) {
	tracer := span.NewTracer(12)
	res, err := RunLAN(ScenarioConfig{
		Seed:        12,
		Objects:     40,
		Runs:        2,
		MarkPrivate: true,
		Spans:       tracer,
		Manager: func(*netsim.Simulator) core.CacheManager {
			m, err := core.NewDelayManager(core.NewContentSpecificDelay())
			if err != nil {
				panic(err)
			}
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	truths := probeTruths(tracer.Records(), "A")
	if len(truths) != len(res.Hit)+len(res.Miss) {
		t.Fatalf("ground truth saw %d probes, want %d", len(truths), len(res.Hit)+len(res.Miss))
	}
	// Ground truth still knows which probes the cache served even though
	// the classifier cannot tell: hits stay hits causally.
	hits, agree := 0, 0
	for _, p := range truths {
		if p.hit {
			hits++
		}
		if (p.totalMS <= res.Threshold) == p.hit {
			agree++
		}
	}
	accuracy := float64(agree) / float64(len(truths))
	if hits != len(res.Hit) {
		t.Errorf("ground-truth hits = %d, want %d (cache served every primed probe)", hits, len(res.Hit))
	}
	if diff := math.Abs(accuracy - res.Accuracy); diff > 0.05 {
		t.Errorf("span-scored accuracy %g deviates from threshold accuracy %g", accuracy, res.Accuracy)
	}
	if accuracy > 0.8 {
		t.Errorf("classifier beat the countermeasure with %g accuracy under span scoring", accuracy)
	}
}

// TestSpansDoNotPerturbScenario asserts telemetry non-perturbation:
// attaching a span tracer changes no measured RTT and no derived
// statistic.
func TestSpansDoNotPerturbScenario(t *testing.T) {
	base, err := RunLAN(ScenarioConfig{Seed: 13, Objects: 24, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunLAN(ScenarioConfig{Seed: 13, Objects: 24, Runs: 2, Spans: span.NewTracer(13)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, traced) {
		t.Errorf("span tracing perturbed the scenario result:\n%+v\nvs\n%+v", base, traced)
	}
}
