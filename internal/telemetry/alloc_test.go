package telemetry

import (
	"testing"
	"unsafe"

	"ndnprivacy/internal/telemetry/span"
)

// These tests pin the zero-allocation contract of metrics.go: counter
// increments and histogram observations sit inside the latency
// the paper's adversary measures, so a regression here is experimental
// noise, not just a slowdown.

func TestCounterZeroAlloc(t *testing.T) {
	c := NewCounter()
	if n := testing.AllocsPerRun(200, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc: %.0f allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add: %.0f allocs/run, want 0", n)
	}
	var nilCounter *Counter
	if n := testing.AllocsPerRun(200, func() { nilCounter.Inc() }); n != 0 {
		t.Errorf("nil Counter.Inc: %.0f allocs/run, want 0", n)
	}
}

func TestGaugeZeroAlloc(t *testing.T) {
	g := NewGauge()
	if n := testing.AllocsPerRun(200, func() { g.Set(42) }); n != 0 {
		t.Errorf("Gauge.Set: %.0f allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.Add(-1) }); n != 0 {
		t.Errorf("Gauge.Add: %.0f allocs/run, want 0", n)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram(ExponentialBounds(1, 2, 10))
	v := 0.5
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(v)
		v *= 1.5
		if v > 2000 {
			v = 0.5
		}
	}); n != 0 {
		t.Errorf("Histogram.Observe: %.0f allocs/run, want 0", n)
	}
}

// A Rec is built for every stage outcome, attached or not, so it stays at
// 96 bytes: the name travels as a pointer and is rendered only by a
// consumer that writes it.
func TestRecSize(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got > 96 {
		t.Errorf("unsafe.Sizeof(Rec{}) = %d, want <= 96", got)
	}
}

// countingName is a record name that counts its renderings.
type countingName struct{ renders int }

func (c *countingName) String() string {
	c.renders++
	return "/counted"
}

// A record's name is rendered only when an event or a span is written,
// and once per record however many of them are: counters alone never
// render it.
func TestTapRendersNameOnlyForWriters(t *testing.T) {
	for _, tc := range []struct {
		label   string
		hooks   Hooks
		renders int
	}{
		{"counters", Hooks{Registry: NewRegistry()}, 0},
		{"events", Hooks{Sink: NewRecorder()}, 1},
		{"spans", Hooks{Tracer: span.NewTracer(1)}, 1},
		{"events and spans", Hooks{Registry: NewRegistry(), Sink: NewRecorder(), Tracer: span.NewTracer(1)}, 1},
	} {
		tap := NewTap(tc.hooks, "n")
		tap.Register(0, NumStages-1)
		name := &countingName{}
		// cs_insert has a counter, an event and an untraced span kind.
		tap.Record(&Rec{Stage: StageInsert, Name: name, T0: 1, T1: 1})
		if name.renders != tc.renders {
			t.Errorf("%s: name rendered %d times, want %d", tc.label, name.renders, tc.renders)
		}
	}
}
