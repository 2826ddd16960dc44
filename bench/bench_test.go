package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// shortConfig is what `bench -short` runs: half a second measured, one
// set-up, every correctness check.
func shortConfig(t *testing.T, workload string) runConfig {
	t.Helper()
	return runConfig{workload: workload, seed: 1, seconds: 0.5, short: true, outDir: t.TempDir()}
}

func skipWithoutLoopback(t *testing.T, workload string) {
	t.Helper()
	if workload != wDaemonZipf && workload != wDaemonProbe {
		return
	}
	if err := loopbackAvailable(); err != nil {
		t.Skipf("%s needs loopback TCP: %v", workload, err)
	}
}

// TestShortRun exercises every workload end to end, tracing off: the
// system is built (ndnd compiled, started and reaped for the daemon
// workloads), loaded, verified, and every end-to-end metric reported.
func TestShortRun(t *testing.T) {
	for _, workload := range workloadOrder {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			skipWithoutLoopback(t, workload)
			res, err := runWorkload(context.Background(), shortConfig(t, workload), false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, spec := range endToEnd {
				m, found := res.Metrics[spec.Name]
				if !found || m.Unit != spec.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (found %v), want a positive value in %s", spec.Name, m, found, spec.Unit)
				}
			}
		})
	}
}

// TestShortTracedRun runs the traced variant of one simulated and one
// daemon workload: every per-layer metric present, coverage computed,
// and the span file and the ledger written.
func TestShortTracedRun(t *testing.T) {
	for _, workload := range []string{wSimHit, wDaemonProbe} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			skipWithoutLoopback(t, workload)
			cfg := shortConfig(t, workload)
			res, err := runWorkload(context.Background(), cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, spec has %d", len(res.Metrics), len(perLayer))
			}
			for _, name := range []string{"ledger.coverage", "trace.overhead_ratio", "ndn.decode_data_ns", "fwd.hit_pipeline_ns", "rt.schedule0_ns", "load.rtt_p50_us"} {
				if m := res.Metrics[name]; !(m.Value > 0) {
					t.Errorf("%s = %v, want positive", name, m.Value)
				}
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+workload+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []benchSpan
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(spans) < 100 {
				t.Fatalf("%d spans recorded", len(spans))
			}
			for _, s := range spans {
				if s.Workload != workload || s.End < s.Start || s.Parent >= s.ID || s.Name == "" {
					t.Fatalf("malformed span %+v", s)
				}
			}
			if info, err := os.Stat(filepath.Join(cfg.outDir, "ledger-"+workload+".md")); err != nil || info.Size() == 0 {
				t.Errorf("ledger file: %v", err)
			}
		})
	}
}

// benchmarkJSON mirrors the driver's schema for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps the root BENCHMARK.json and spec.go
// in step, and both inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the driver's limits", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(file.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloadOrder))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloadOrder[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q %q, spec.go has %q %q", i, w.Name, w.Why, workloadOrder[i], workloadWhy[workloadOrder[i]])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i := range got {
			checkName(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, spec.go has %+v", kind, i, got[i], want[i])
			}
			if !unitRE.MatchString(got[i].Unit) {
				t.Errorf("%s: unit %q outside the driver's limits", got[i].Name, got[i].Unit)
			}
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
			if bounded && (got[i].Bound <= 0 || got[i].Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", got[i].Name, got[i].Bound)
			}
			if !bounded && got[i].Bound != 0 {
				t.Errorf("%s: a per-layer metric carries no bound", got[i].Name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics, limits 128 and 16", len(file.PerLayer), len(file.EndToEnd))
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}
