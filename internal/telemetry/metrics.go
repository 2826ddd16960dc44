package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter, safe for concurrent
// use. All methods are nil-safe so instrumented code can hold a nil
// *Counter when telemetry is disabled and still call Inc unconditionally.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter, not attached to any registry
// (what a nil Registry hands out).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed value, safe for concurrent use and
// nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with caller-supplied ascending
// upper bounds plus an implicit overflow bucket. Observation is a
// bounded linear scan and two atomic adds — no allocation, no locks.
type Histogram struct {
	bounds []float64 // ascending upper bounds; len(counts) = len(bounds)+1
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. Bounds are copied; out-of-order input is handled by insertion
// into the first bucket whose bound is >= the observation, so callers
// should pass sorted bounds (ExponentialBounds does).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// ExponentialBounds returns n ascending upper bounds start, start*growth,
// start*growth², … — the fixed-bucket exponential layout the stack uses
// for latency distributions. growth must be > 1 and n > 0; violations
// yield a single-bucket layout rather than a panic, since bucket layout
// is a display concern, never a correctness one.
func ExponentialBounds(start, growth float64, n int) []float64 {
	if n <= 0 || start <= 0 || growth <= 1 {
		return []float64{math.Max(start, 1)}
	}
	bounds := make([]float64, n)
	b := start
	for i := range bounds {
		bounds[i] = b
		b *= growth
	}
	return bounds
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := len(h.bounds) // overflow bucket
	for i, bound := range h.bounds {
		if v <= bound {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// mergeValue folds a snapshotted histogram into this one. When the
// bucket layouts match (the invariant for same-named histograms emitted
// by identical instrumentation), counts add bucket-by-bucket; a
// mismatched layout degrades gracefully by re-binning each source
// bucket at its upper bound, preserving Count and Sum exactly and
// bucket placement approximately. Nil-safe.
func (h *Histogram) mergeValue(hv HistogramValue) {
	if h == nil {
		return
	}
	if len(hv.Buckets) == len(h.counts) && boundsEqual(h.bounds, hv.Bounds) {
		for i, c := range hv.Buckets {
			h.counts[i].Add(c)
		}
	} else {
		for i, c := range hv.Buckets {
			if c == 0 {
				continue
			}
			idx := len(h.bounds) // overflow unless a bound fits
			if i < len(hv.Bounds) {
				for j, bound := range h.bounds {
					if hv.Bounds[i] <= bound {
						idx = j
						break
					}
				}
			}
			h.counts[idx].Add(c)
		}
	}
	h.count.Add(hv.Count)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + hv.Sum)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns per-bucket counts; the final element is the
// overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
