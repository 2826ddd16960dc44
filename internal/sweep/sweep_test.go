package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"ndnprivacy/internal/telemetry"
)

func intCells(n int) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Labels: []string{fmt.Sprintf("cell=%d", i)},
			Run: func(seed int64, _ telemetry.Provider) (int, error) {
				// Burn a few RNG draws so cells finish out of order
				// under a pool, then return a value tied to the index.
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < rng.Intn(100); k++ {
					_ = rng.Int63()
				}
				return i * i, nil
			},
		}
	}
	return cells
}

func TestRunPreservesCellOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, 8} {
		results, err := Run(intCells(37), Options{RootSeed: 5, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("parallel=%d: results[%d] = %d, want %d", parallel, i, r, i*i)
			}
		}
	}
}

func TestRunCollectsErrorsWithoutAborting(t *testing.T) {
	cells := intCells(10)
	cells[3].Run = func(int64, telemetry.Provider) (int, error) { return 0, errors.New("boom-3") }
	cells[7].Run = func(int64, telemetry.Provider) (int, error) { return 0, errors.New("boom-7") }
	results, err := Run(cells, Options{RootSeed: 1, Parallel: 4})
	if err == nil {
		t.Fatal("expected an error")
	}
	var errs *Errors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T, want *Errors", err)
	}
	if len(errs.Cells) != 2 || errs.Total != 10 {
		t.Fatalf("got %d/%d failed cells, want 2/10", len(errs.Cells), errs.Total)
	}
	if errs.Cells[0].Index != 3 || errs.Cells[1].Index != 7 {
		t.Fatalf("failed indices = %d,%d, want 3,7", errs.Cells[0].Index, errs.Cells[1].Index)
	}
	if got := errs.Cells[0].Labels[0]; got != "cell=3" {
		t.Fatalf("failed cell labels = %q, want cell=3", got)
	}
	// Succeeding cells still returned their results.
	for _, i := range []int{0, 1, 2, 4, 5, 6, 8, 9} {
		if results[i] != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, results[i], i*i)
		}
	}
	if !strings.Contains(err.Error(), "2 of 10") {
		t.Fatalf("error message %q does not summarize the failure count", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	cells := intCells(4)
	cells[2].Run = func(int64, telemetry.Provider) (int, error) { panic("kaboom") }
	_, err := Run(cells, Options{Parallel: 2})
	var errs *Errors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T, want *Errors", err)
	}
	if len(errs.Cells) != 1 || errs.Cells[0].Index != 2 {
		t.Fatalf("unexpected failures: %v", errs)
	}
	if !strings.Contains(errs.Cells[0].Err.Error(), "kaboom") {
		t.Fatalf("panic message lost: %v", errs.Cells[0].Err)
	}
}

func TestRunNilRunFunc(t *testing.T) {
	_, err := Run([]Cell[int]{{Labels: []string{"empty"}}}, Options{})
	var errs *Errors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T, want *Errors", err)
	}
}

func TestRunDerivesDistinctSeedsPerCell(t *testing.T) {
	seeds := make([]int64, 8)
	cells := make([]Cell[int], 8)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Labels: []string{fmt.Sprintf("cell=%d", i)},
			Run: func(seed int64, _ telemetry.Provider) (int, error) {
				seeds[i] = seed
				return 0, nil
			},
		}
	}
	if _, err := Run(cells, Options{RootSeed: 9, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i, s := range seeds {
		if s != DeriveSeed(9, cells[i].Labels...) {
			t.Fatalf("cell %d got seed %d, want DeriveSeed output", i, s)
		}
		if seen[s] {
			t.Fatalf("seed %d repeated", s)
		}
		seen[s] = true
	}
}

// telemetryCells emit one counter increment, one histogram sample, and
// two trace events per cell, keyed by index.
func telemetryCells(n int) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Labels: []string{fmt.Sprintf("cell=%d", i)},
			Run: func(seed int64, prov telemetry.Provider) (int, error) {
				prov.Metrics().Counter("sweep_test_total").Inc()
				prov.Metrics().Counter(fmt.Sprintf("sweep_test_cell_%d", i)).Add(uint64(i))
				prov.Metrics().Histogram("sweep_test_hist", []float64{1, 10}).Observe(float64(i))
				telemetry.Emit(prov.TraceSink(), telemetry.Event{Type: telemetry.EvRunStart, Run: i})
				telemetry.Emit(prov.TraceSink(), telemetry.Event{Type: telemetry.EvCSInsert, Run: i})
				return i, nil
			},
		}
	}
	return cells
}

func TestTelemetryMergesDeterministically(t *testing.T) {
	const n = 13
	run := func(parallel int) (string, []telemetry.Event) {
		reg := telemetry.NewRegistry()
		rec := telemetry.NewRecorder()
		if _, err := Run(telemetryCells(n), Options{RootSeed: 3, Parallel: parallel, Metrics: reg, Trace: rec}); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec.Events()
	}

	serialProm, serialEvents := run(1)
	if len(serialEvents) != 2*n {
		t.Fatalf("got %d trace events, want %d", len(serialEvents), 2*n)
	}
	for i, ev := range serialEvents {
		if ev.Run != i/2 {
			t.Fatalf("event %d carries run %d; trace not in cell order", i, ev.Run)
		}
	}
	for _, parallel := range []int{2, 8} {
		prom, events := run(parallel)
		if prom != serialProm {
			t.Fatalf("parallel=%d: merged metrics differ from serial run", parallel)
		}
		if len(events) != len(serialEvents) {
			t.Fatalf("parallel=%d: %d events, want %d", parallel, len(events), len(serialEvents))
		}
		for i := range events {
			if events[i] != serialEvents[i] {
				t.Fatalf("parallel=%d: event %d = %+v, want %+v", parallel, i, events[i], serialEvents[i])
			}
		}
	}
}

func TestTelemetryNilOptionsGiveNilProviders(t *testing.T) {
	cells := []Cell[int]{{
		Labels: []string{"only"},
		Run: func(_ int64, prov telemetry.Provider) (int, error) {
			if prov.Metrics() != nil {
				t.Error("expected nil metrics registry when Options.Metrics is nil")
			}
			if prov.TraceSink() != nil {
				t.Error("expected nil trace sink when Options.Trace is nil")
			}
			// Nil-safe telemetry must still absorb writes.
			prov.Metrics().Counter("x").Inc()
			telemetry.Emit(prov.TraceSink(), telemetry.Event{Type: telemetry.EvRunStart})
			return 1, nil
		},
	}}
	if _, err := Run(cells, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPoolStress hammers the pool with many tiny cells; under
// `go test -race` (scripts/check.sh and CI) this doubles as the data-race
// check on the engine's result slices and merger.
func TestWorkerPoolStress(t *testing.T) {
	const n = 400
	var ran atomic.Int64
	reg := telemetry.NewRegistry()
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Labels: []string{fmt.Sprintf("cell=%d", i)},
			Run: func(seed int64, prov telemetry.Provider) (int, error) {
				ran.Add(1)
				prov.Metrics().Counter("stress_total").Inc()
				if i%97 == 0 {
					return 0, errors.New("expected failure")
				}
				return i, nil
			},
		}
	}
	results, err := Run(cells, Options{RootSeed: 11, Parallel: 16, Metrics: reg, Trace: telemetry.NewRecorder()})
	if ran.Load() != n {
		t.Fatalf("ran %d cells, want %d", ran.Load(), n)
	}
	var errs *Errors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T, want *Errors", err)
	}
	wantFail := 0
	for i := 0; i < n; i += 97 {
		wantFail++
	}
	if len(errs.Cells) != wantFail {
		t.Fatalf("%d failures, want %d", len(errs.Cells), wantFail)
	}
	if got := reg.Counter("stress_total").Value(); got != n {
		t.Fatalf("merged counter = %d, want %d", got, n)
	}
	for i, r := range results {
		if i%97 == 0 {
			continue
		}
		if r != i {
			t.Fatalf("results[%d] = %d", i, r)
		}
	}
}

func TestParallelCapping(t *testing.T) {
	// Parallel > len(cells) must not deadlock or leak workers; Parallel
	// <= 1 runs the cells serially.
	for _, parallel := range []int{-1, 0, 64} {
		results, err := Run(intCells(3), Options{Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if len(results) != 3 {
			t.Fatalf("parallel=%d: %d results", parallel, len(results))
		}
	}
}

func TestRunEmptyGrid(t *testing.T) {
	results, err := Run([]Cell[int]{}, Options{Parallel: 4})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty grid: results=%v err=%v", results, err)
	}
}
