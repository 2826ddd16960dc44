package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
	"ndnprivacy/internal/trace"
)

// figure5aArtifacts runs a small Figure 5(a) sweep at the given
// parallelism and returns the result rows as JSON plus the merged
// Prometheus exposition, trace stream, and span stream (as NDJSON).
func figure5aArtifacts(t *testing.T, parallel int) (rowsJSON, prom []byte, events []telemetry.Event, spansNDJSON []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder()
	spans := span.NewTracer(3)
	res, err := Figure5a(Figure5Config{
		Seed:     3,
		Requests: 4000,
		Parallel: parallel,
		Metrics:  reg,
		Trace:    rec,
		Spans:    spans,
	})
	if err != nil {
		t.Fatalf("parallel=%d: %v", parallel, err)
	}
	rowsJSON, err = json.Marshal(res.Rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var spanBuf bytes.Buffer
	if err := span.WriteNDJSON(&spanBuf, spans.Records()); err != nil {
		t.Fatal(err)
	}
	return rowsJSON, buf.Bytes(), rec.Events(), spanBuf.Bytes()
}

// TestSweepDeterminismFigure5a is the tentpole guarantee: a parallel
// sweep's results, merged metrics, trace stream, and span stream are
// byte-identical to the serial run with the same root seed.
func TestSweepDeterminismFigure5a(t *testing.T) {
	serialRows, serialProm, serialEvents, serialSpans := figure5aArtifacts(t, 1)
	if len(serialEvents) == 0 {
		t.Fatal("expected trace events from the replay")
	}
	if len(serialSpans) == 0 {
		t.Fatal("expected span records from the replay")
	}
	parRows, parProm, parEvents, parSpans := figure5aArtifacts(t, 8)
	if !bytes.Equal(serialRows, parRows) {
		t.Errorf("result rows differ between -parallel 1 and 8:\n%s\nvs\n%s", serialRows, parRows)
	}
	if !bytes.Equal(serialProm, parProm) {
		t.Error("merged Prometheus exposition differs between -parallel 1 and 8")
	}
	if len(serialEvents) != len(parEvents) {
		t.Fatalf("trace lengths differ: %d vs %d", len(serialEvents), len(parEvents))
	}
	for i := range serialEvents {
		if serialEvents[i] != parEvents[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, serialEvents[i], parEvents[i])
		}
	}
	if !bytes.Equal(serialSpans, parSpans) {
		t.Error("span NDJSON differs between -parallel 1 and 8")
	}
}

// TestSweepDeterminismSharedTrace replays one compiled trace from eight
// goroutines at once — what a parallel Figure 5 sweep does with its
// shared workload — and demands each replay's statistics and event
// stream equal the same cell replayed alone. Under -race (scripts/check.sh
// runs every test there) it also proves the sharing is read-only.
func TestSweepDeterminismSharedTrace(t *testing.T) {
	cfg := Figure5Config{Seed: 5, Requests: 3000}
	cfg.setDefaults()
	workload, err := compileTrace(cfg.Seed, cfg.Requests, cfg.PrivateFraction)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		stats  trace.ReplayStats
		events []telemetry.Event
		err    error
	}
	replay := func(cell int) outcome {
		algo := figure5Algorithms[cell%len(figure5Algorithms)]
		manager, err := buildAlgorithm(cfg, algo, rand.New(rand.NewSource(int64(cell))))
		if err != nil {
			return outcome{err: err}
		}
		rec := telemetry.NewRecorder()
		stats, err := workload.Replay(trace.ReplayConfig{
			CacheSize: []int{40, 0}[cell/len(figure5Algorithms)],
			Manager:   manager,
			Trace:     rec,
			Spans:     span.NewTracer(int64(cell)),
		})
		return outcome{stats, rec.Events(), err}
	}
	const cells = 8
	var alone, together [cells]outcome
	for cell := range alone {
		alone[cell] = replay(cell)
	}
	var wg sync.WaitGroup
	for cell := range together {
		cell := cell
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[cell] = replay(cell)
		}()
	}
	wg.Wait()
	for cell := range alone {
		a, b := alone[cell], together[cell]
		if a.err != nil || b.err != nil {
			t.Fatalf("cell %d: %v / %v", cell, a.err, b.err)
		}
		if a.stats != b.stats {
			t.Errorf("cell %d: stats %+v alone, %+v beside seven other replays", cell, a.stats, b.stats)
		}
		if len(a.events) == 0 || len(a.events) != len(b.events) {
			t.Fatalf("cell %d: %d trace events alone, %d shared", cell, len(a.events), len(b.events))
		}
		for i := range a.events {
			if a.events[i] != b.events[i] {
				t.Fatalf("cell %d: trace event %d differs: %+v vs %+v", cell, i, a.events[i], b.events[i])
			}
		}
	}
}

// TestSweepDeterminismFigure3LAN covers the simulator-backed batches:
// per-run derived seeds plus in-order merge make the attack result and
// its telemetry independent of the worker count.
func TestSweepDeterminismFigure3LAN(t *testing.T) {
	run := func(parallel int) ([]byte, []byte, []telemetry.Event, []byte) {
		reg := telemetry.NewRegistry()
		rec := telemetry.NewRecorder()
		spans := span.NewTracer(7)
		res, err := attack.RunLAN(attack.ScenarioConfig{
			Seed:     7,
			Objects:  24,
			Runs:     4,
			Parallel: parallel,
			Metrics:  reg,
			Trace:    rec,
			Spans:    spans,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var spanBuf bytes.Buffer
		if err := span.WriteNDJSON(&spanBuf, spans.Records()); err != nil {
			t.Fatal(err)
		}
		return resJSON, buf.Bytes(), rec.Events(), spanBuf.Bytes()
	}
	serialJSON, serialProm, serialEvents, serialSpans := run(1)
	parJSON, parProm, parEvents, parSpans := run(8)
	if len(serialSpans) == 0 {
		t.Fatal("expected span records from the scenario")
	}
	if !bytes.Equal(serialSpans, parSpans) {
		t.Error("span NDJSON differs between -parallel 1 and 8")
	}
	if !bytes.Equal(serialJSON, parJSON) {
		t.Errorf("scenario result differs between -parallel 1 and 8:\n%s\nvs\n%s", serialJSON, parJSON)
	}
	if !bytes.Equal(serialProm, parProm) {
		t.Error("merged Prometheus exposition differs between -parallel 1 and 8")
	}
	if len(serialEvents) != len(parEvents) {
		t.Fatalf("trace lengths differ: %d vs %d", len(serialEvents), len(parEvents))
	}
	runStarts := 0
	for i := range serialEvents {
		if serialEvents[i] != parEvents[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, serialEvents[i], parEvents[i])
		}
		if serialEvents[i].Type == telemetry.EvRunStart {
			runStarts++
		}
	}
	if runStarts != 4 {
		t.Fatalf("trace carries %d run_start records, want 4", runStarts)
	}
}

// TestSweepDeterminismTiered covers the tiered-store scenario: the disk
// model's virtual-time costs, tier-movement telemetry (promote/demote
// events and spans), and the three-class samples must all be
// byte-identical at any worker count.
func TestSweepDeterminismTiered(t *testing.T) {
	run := func(parallel int) ([]byte, []byte, []telemetry.Event, []byte) {
		reg := telemetry.NewRegistry()
		rec := telemetry.NewRecorder()
		spans := span.NewTracer(9)
		res, err := attack.RunTiered(attack.ScenarioConfig{
			Seed:     9,
			Objects:  24,
			Runs:     4,
			Parallel: parallel,
			Metrics:  reg,
			Trace:    rec,
			Spans:    spans,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var spanBuf bytes.Buffer
		if err := span.WriteNDJSON(&spanBuf, spans.Records()); err != nil {
			t.Fatal(err)
		}
		return resJSON, buf.Bytes(), rec.Events(), spanBuf.Bytes()
	}
	serialJSON, serialProm, serialEvents, serialSpans := run(1)
	parJSON, parProm, parEvents, parSpans := run(8)
	if len(serialSpans) == 0 {
		t.Fatal("expected span records from the tiered scenario")
	}
	if !bytes.Equal(serialJSON, parJSON) {
		t.Errorf("tiered result differs between -parallel 1 and 8:\n%s\nvs\n%s", serialJSON, parJSON)
	}
	if !bytes.Equal(serialProm, parProm) {
		t.Error("merged Prometheus exposition differs between -parallel 1 and 8")
	}
	if !bytes.Equal(serialSpans, parSpans) {
		t.Error("span NDJSON differs between -parallel 1 and 8")
	}
	if len(serialEvents) != len(parEvents) {
		t.Fatalf("trace lengths differ: %d vs %d", len(serialEvents), len(parEvents))
	}
	demotes, promotes := 0, 0
	for i := range serialEvents {
		if serialEvents[i] != parEvents[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, serialEvents[i], parEvents[i])
		}
		switch serialEvents[i].Type {
		case telemetry.EvCSDemote:
			demotes++
		case telemetry.EvCSPromote:
			promotes++
		}
	}
	if demotes == 0 || promotes == 0 {
		t.Fatalf("trace carries %d demote / %d promote events, want both > 0", demotes, promotes)
	}
}

// BenchmarkFigure5Sweep measures the same Figure 5(a) grid serially and
// on an 8-worker pool. The grid's 24 cells (6 cache sizes × 4
// algorithms) share only the read-only compiled trace, so the speedup
// tracks available cores (≈1× on a single-vCPU CI box,
// near-linear up to 8 cores elsewhere); bench/ reports the pair as
// sweep.parallel_speedup.
func BenchmarkFigure5Sweep(b *testing.B) {
	bench := func(parallel int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Figure5a(Figure5Config{Seed: 3, Requests: 20000, Parallel: parallel}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", bench(1))
	b.Run("parallel8", bench(8))
}
