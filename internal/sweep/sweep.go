package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"

	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// Cell is one independent trial of a sweep: a point on the experiment
// grid. Labels canonically identify the cell (they derive its seed and
// name it in error reports); Run executes the trial with the derived
// seed and a per-cell telemetry provider whose registry and sink are
// merged into the caller's in cell order after the cell finishes.
type Cell[R any] struct {
	// Labels canonically identify the cell within the sweep, e.g.
	// {"fig=5a", "algo=Uniform-Random-Cache", "size=2000"}. Two cells
	// of one sweep must not share the same label sequence, or they
	// would share an RNG stream.
	Labels []string
	// Run executes the trial. seed is DeriveSeed(root, Labels...); all
	// of the cell's randomness must flow from it. prov carries the
	// cell-private metrics registry and trace sink (either may be nil
	// when the sweep has no telemetry attached); the cell must not
	// write to any telemetry shared with other cells.
	Run func(seed int64, prov telemetry.Provider) (R, error)
}

// Options configures one sweep execution.
type Options struct {
	// RootSeed is the experiment seed every cell seed is derived from.
	RootSeed int64
	// Parallel bounds the worker pool; values <= 1 execute cells
	// sequentially on the calling goroutine.
	Parallel int
	// Metrics, when non-nil, receives every cell's metrics, merged in
	// cell order once the cell (and all earlier cells) completed.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives every cell's trace events, replayed
	// in cell order. Events are buffered per cell and flushed as soon
	// as all earlier cells completed, so serial and parallel runs emit
	// byte-identical streams.
	Trace telemetry.Sink
	// Spans, when non-nil, receives every cell's span records, merged in
	// cell order like Trace events. Each cell gets a private tracer
	// seeded with its derived cell seed, so span IDs and output bytes
	// are identical for any Parallel value.
	Spans *span.Tracer
}

// CellError is one failed cell.
type CellError struct {
	// Index is the cell's position in the sweep grid.
	Index int
	// Labels are the failed cell's canonical labels.
	Labels []string
	// Err is what the cell returned (or the recovered panic).
	Err error
}

// Error implements error.
func (e CellError) Error() string {
	return fmt.Sprintf("cell %d [%s]: %v", e.Index, strings.Join(e.Labels, " "), e.Err)
}

// Unwrap exposes the underlying cell failure to errors.Is/As.
func (e CellError) Unwrap() error { return e.Err }

// Errors aggregates every failed cell of a sweep, in cell order. A
// sweep never aborts on the first failure: callers get results for all
// succeeding cells plus this error for the rest, so a CLI can render
// the partial table and report the failures at the end.
type Errors struct {
	Cells []CellError
	// Total is the sweep's grid size, for "N of M cells failed"
	// reporting.
	Total int
}

// Error implements error.
func (e *Errors) Error() string {
	if len(e.Cells) == 1 {
		return fmt.Sprintf("sweep: 1 of %d cells failed: %v", e.Total, e.Cells[0])
	}
	return fmt.Sprintf("sweep: %d of %d cells failed; first: %v", len(e.Cells), e.Total, e.Cells[0])
}

// Unwrap exposes the per-cell errors to errors.Is/As.
func (e *Errors) Unwrap() []error {
	out := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		out[i] = c
	}
	return out
}

// Run executes every cell on a bounded worker pool and returns the
// results in cell order. results[i] is cell i's value, or the zero R if
// that cell failed; err is nil when every cell succeeded, otherwise an
// *Errors listing each failure in cell order. Telemetry attached via
// Options is merged deterministically: the output is byte-identical for
// any Parallel value.
func Run[R any](cells []Cell[R], opts Options) (results []R, err error) {
	workers := opts.Parallel
	if workers > len(cells) {
		workers = len(cells)
	}
	results = make([]R, len(cells))
	cellErrs := make([]error, len(cells))
	m := newMerger(len(cells), opts.Metrics, opts.Trace, opts.Spans)

	runCell := func(i int) {
		seed := DeriveSeed(opts.RootSeed, cells[i].Labels...)
		// pprof labels attribute CPU-profile samples to grid cells, so
		// `go tool pprof -tagfocus` can isolate one cell's cost.
		pprof.Do(context.Background(), pprof.Labels("sweep_cell", strings.Join(cells[i].Labels, " ")), func(context.Context) {
			results[i], cellErrs[i] = runGuarded(cells[i], seed, m.provider(i, seed))
		})
		m.complete(i)
	}

	if workers <= 1 {
		for i := range cells {
			runCell(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					runCell(i)
				}
			}()
		}
		for i := range cells {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	var failed []CellError
	for i, cellErr := range cellErrs {
		if cellErr != nil {
			failed = append(failed, CellError{Index: i, Labels: cells[i].Labels, Err: cellErr})
		}
	}
	if len(failed) > 0 {
		return results, &Errors{Cells: failed, Total: len(cells)}
	}
	return results, nil
}

// runGuarded executes one cell, converting a panic into a cell error so
// a single broken cell cannot take down the whole sweep (or, under a
// worker pool, the whole process).
func runGuarded[R any](cell Cell[R], seed int64, prov telemetry.Provider) (out R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if cell.Run == nil {
		return out, errors.New("cell has no Run function")
	}
	return cell.Run(seed, prov)
}

// merger owns the per-cell telemetry buffers and flushes them into the
// sweep-level registry/sink in cell order. Flushing is incremental — a
// completed cell is flushed as soon as every earlier cell completed —
// so a serial sweep streams with one cell of buffering, and a parallel
// sweep holds at most the out-of-order window.
type merger struct {
	metrics *telemetry.Registry
	trace   telemetry.Sink
	spans   *span.Tracer

	regs  []*telemetry.Registry
	bufs  []*telemetry.Recorder
	cellS []*span.Tracer

	mu   sync.Mutex
	done []bool
	next int
}

func newMerger(n int, metrics *telemetry.Registry, trace telemetry.Sink, spans *span.Tracer) *merger {
	m := &merger{
		metrics: metrics,
		trace:   trace,
		spans:   spans,
		regs:    make([]*telemetry.Registry, n),
		bufs:    make([]*telemetry.Recorder, n),
		cellS:   make([]*span.Tracer, n),
		done:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		if metrics != nil {
			m.regs[i] = telemetry.NewRegistry()
		}
		if trace != nil {
			m.bufs[i] = telemetry.NewRecorder()
		}
		if spans != nil {
			m.cellS[i] = span.NewTracer(0) // re-seeded with the cell seed in provider(i, seed)
		}
	}
	return m
}

// provider returns cell i's telemetry provider. The per-cell buffers
// were allocated up front, so this is read-only and safe from any
// worker: slot i is only ever written by complete(i), which runs after
// the cell — and therefore after this call — finished.
func (m *merger) provider(i int, seed int64) telemetry.Provider {
	p := telemetry.Hooks{Registry: m.regs[i]}
	if m.bufs[i] != nil {
		p.Sink = m.bufs[i]
	}
	if m.cellS[i] != nil {
		m.cellS[i].SetSeed(seed)
		p.Tracer = m.cellS[i]
	}
	return p
}

// complete marks cell i finished and flushes the contiguous completed
// prefix into the sweep-level telemetry, preserving cell order.
func (m *merger) complete(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done[i] = true
	for m.next < len(m.done) && m.done[m.next] {
		if m.regs[m.next] != nil {
			m.metrics.Merge(m.regs[m.next].Snapshot())
			m.regs[m.next] = nil
		}
		if m.bufs[m.next] != nil {
			for _, ev := range m.bufs[m.next].Events() {
				m.trace.Emit(ev)
			}
			m.bufs[m.next] = nil
		}
		if m.cellS[m.next] != nil {
			m.spans.Merge(m.cellS[m.next].Records())
			m.cellS[m.next] = nil
		}
		m.next++
	}
}
