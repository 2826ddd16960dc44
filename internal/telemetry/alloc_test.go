package telemetry

import "testing"

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
