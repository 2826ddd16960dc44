// Package stats provides small statistical utilities used across the
// cache-privacy experiments: streaming summaries, fixed-bin histograms,
// empirical distributions, and measures of distinguishability between two
// delay distributions (total-variation distance and the accuracy of the
// best threshold classifier).
//
// Everything in this package is deterministic and allocation-conscious so
// that it can run inside benchmarks without distorting their measurements.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrEmpty is returned by operations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Histogram is a fixed-bin histogram over a half-open interval [Min, Max).
// Samples outside the interval are clamped into the first or last bin so
// that heavy tails remain visible rather than silently dropped.
type Histogram struct {
	min    float64
	max    float64
	width  float64
	counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with n equal-width bins spanning
// [minVal, maxVal). It returns an error if the interval is empty or the bin
// count is not positive.
func NewHistogram(minVal, maxVal float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: bin count %d must be positive", n)
	}
	if !(minVal < maxVal) {
		return nil, fmt.Errorf("stats: invalid interval [%g, %g)", minVal, maxVal)
	}
	return &Histogram{
		min:    minVal,
		max:    maxVal,
		width:  (maxVal - minVal) / float64(n),
		counts: make([]uint64, n),
	}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.min) / h.width)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the raw count of bin i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.min + (float64(i)+0.5)*h.width
}

// PDF returns the normalized probability mass per bin. The slice always has
// Bins() entries; if the histogram is empty all entries are zero.
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Render draws a crude ASCII sketch of the histogram, one row per bin, for
// command-line inspection of the Figure 3 delay PDFs.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	pdf := h.PDF()
	peak := 0.0
	for _, p := range pdf {
		if p > peak {
			peak = p
		}
	}
	var b strings.Builder
	for i, p := range pdf {
		bar := 0
		if peak > 0 {
			bar = int(math.Round(p / peak * float64(width)))
		}
		fmt.Fprintf(&b, "%10.3f | %-*s %.4f\n", h.BinCenter(i), width, strings.Repeat("#", bar), p)
	}
	return b.String()
}

// TotalVariation computes the total-variation distance between the
// normalized mass functions of two histograms with identical binning.
func TotalVariation(a, b *Histogram) (float64, error) {
	if a.Bins() != b.Bins() || a.min != b.min || a.max != b.max {
		return 0, fmt.Errorf("stats: histograms have mismatched binning (%d/%g/%g vs %d/%g/%g)",
			a.Bins(), a.min, a.max, b.Bins(), b.min, b.max)
	}
	if a.total == 0 || b.total == 0 {
		return 0, ErrEmpty
	}
	pa, pb := a.PDF(), b.PDF()
	sum := 0.0
	for i := range pa {
		sum += math.Abs(pa[i] - pb[i])
	}
	return sum / 2, nil
}

// Empirical is a sorted sample set supporting CDF queries and
// threshold classification without pre-binning.
type Empirical struct {
	xs []float64
}

// NewEmpirical copies and sorts the given samples.
func NewEmpirical(xs []float64) (*Empirical, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &Empirical{xs: cp}, nil
}

// Len returns the sample count.
func (e *Empirical) Len() int { return len(e.xs) }

// Min returns the smallest sample.
func (e *Empirical) Min() float64 { return e.xs[0] }

// Max returns the largest sample.
func (e *Empirical) Max() float64 { return e.xs[len(e.xs)-1] }

// CDFAt returns the empirical CDF evaluated at x.
func (e *Empirical) CDFAt(x float64) float64 {
	// Count samples <= x via binary search.
	idx := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.xs))
}

// ThresholdAccuracy finds the single decision threshold t that best
// separates two empirical sample sets (a classified as "below t", b as
// "above or equal") and returns the achieved accuracy together with the
// threshold. This mirrors what the paper's adversary actually does: pick a
// cut-off RTT and declare "cache hit" below it.
func ThresholdAccuracy(below, above *Empirical) (acc, threshold float64) {
	// Candidate thresholds: midpoints between adjacent pooled samples.
	pooled := make([]float64, 0, below.Len()+above.Len())
	pooled = append(pooled, below.xs...)
	pooled = append(pooled, above.xs...)
	sort.Float64s(pooled)

	bestAcc, bestT := 0.0, pooled[0]
	for i := 0; i+1 < len(pooled); i++ {
		t := (pooled[i] + pooled[i+1]) / 2
		correct := below.CDFAt(t)*float64(below.Len()) +
			(1-above.CDFAt(t))*float64(above.Len())
		a := correct / float64(below.Len()+above.Len())
		if a > bestAcc {
			bestAcc, bestT = a, t
		}
	}
	// A degenerate threshold below everything classifies all of "above"
	// correctly; make sure we never report worse than that baseline.
	if base := float64(above.Len()) / float64(below.Len()+above.Len()); base > bestAcc {
		bestAcc, bestT = base, below.Min()-1
	}
	return bestAcc, bestT
}
