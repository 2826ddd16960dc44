package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustHistogram(t *testing.T, lo, hi float64, n int) *Histogram {
	t.Helper()
	h, err := NewHistogram(lo, hi, n)
	if err != nil {
		t.Fatalf("NewHistogram(%g, %g, %d): %v", lo, hi, n, err)
	}
	return h
}

func TestNewHistogramRejectsBadArgs(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64
		n      int
	}{
		{"zero bins", 0, 1, 0},
		{"negative bins", 0, 1, -3},
		{"empty interval", 1, 1, 10},
		{"inverted interval", 2, 1, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewHistogram(tc.lo, tc.hi, tc.n); err == nil {
				t.Fatalf("NewHistogram(%g, %g, %d) succeeded, want error", tc.lo, tc.hi, tc.n)
			}
		})
	}
}

func TestHistogramBinning(t *testing.T) {
	h := mustHistogram(t, 0, 10, 10)
	h.Add(0)    // bin 0
	h.Add(0.5)  // bin 0
	h.Add(9.99) // bin 9
	h.Add(5)    // bin 5
	if got := h.Count(0); got != 2 {
		t.Errorf("Count(0) = %d, want 2", got)
	}
	if got := h.Count(9); got != 1 {
		t.Errorf("Count(9) = %d, want 1", got)
	}
	if got := h.Count(5); got != 1 {
		t.Errorf("Count(5) = %d, want 1", got)
	}
	if got := h.Total(); got != 4 {
		t.Errorf("Total() = %d, want 4", got)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := mustHistogram(t, 0, 10, 5)
	h.Add(-100)
	h.Add(1e9)
	if got := h.Count(0); got != 1 {
		t.Errorf("low outlier: Count(0) = %d, want 1", got)
	}
	if got := h.Count(4); got != 1 {
		t.Errorf("high outlier: Count(4) = %d, want 1", got)
	}
}

func TestHistogramPDFSumsToOne(t *testing.T) {
	h := mustHistogram(t, 0, 1, 17)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64())
	}
	sum := 0.0
	for _, p := range h.PDF() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PDF sums to %g, want 1", sum)
	}
}

func TestHistogramEmptyPDFIsZero(t *testing.T) {
	h := mustHistogram(t, 0, 1, 4)
	for i, p := range h.PDF() {
		if p != 0 {
			t.Errorf("empty PDF bin %d = %g, want 0", i, p)
		}
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := mustHistogram(t, 0, 10, 10)
	if got := h.BinCenter(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("BinCenter(0) = %g, want 0.5", got)
	}
	if got := h.BinCenter(9); math.Abs(got-9.5) > 1e-12 {
		t.Errorf("BinCenter(9) = %g, want 9.5", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := mustHistogram(t, 0, 2, 2)
	h.Add(0.5)
	h.Add(0.6)
	h.Add(1.5)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Errorf("Render produced no bars:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("Render produced %d lines, want 2", lines)
	}
}

func TestTotalVariationIdentical(t *testing.T) {
	a := mustHistogram(t, 0, 1, 10)
	b := mustHistogram(t, 0, 1, 10)
	for i := 0; i < 100; i++ {
		x := float64(i%10) / 10
		a.Add(x)
		b.Add(x)
	}
	tv, err := TotalVariation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 0 {
		t.Errorf("TV of identical histograms = %g, want 0", tv)
	}
}

func TestTotalVariationDisjoint(t *testing.T) {
	a := mustHistogram(t, 0, 1, 10)
	b := mustHistogram(t, 0, 1, 10)
	for i := 0; i < 50; i++ {
		a.Add(0.05) // all in bin 0
		b.Add(0.95) // all in bin 9
	}
	tv, err := TotalVariation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tv-1) > 1e-12 {
		t.Errorf("TV of disjoint histograms = %g, want 1", tv)
	}
}

func TestTotalVariationMismatch(t *testing.T) {
	a := mustHistogram(t, 0, 1, 10)
	b := mustHistogram(t, 0, 1, 20)
	a.Add(0.5)
	b.Add(0.5)
	if _, err := TotalVariation(a, b); err == nil {
		t.Error("TotalVariation with mismatched bins succeeded, want error")
	}
}

func TestTotalVariationEmpty(t *testing.T) {
	a := mustHistogram(t, 0, 1, 10)
	b := mustHistogram(t, 0, 1, 10)
	if _, err := TotalVariation(a, b); err == nil {
		t.Error("TotalVariation with empty histograms succeeded, want error")
	}
}

func TestBayesAccuracyRange(t *testing.T) {
	a := mustHistogram(t, 0, 1, 10)
	b := mustHistogram(t, 0, 1, 10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		a.Add(rng.Float64())
		b.Add(rng.Float64())
	}
	acc, err := BayesAccuracy(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 || acc > 1 {
		t.Errorf("BayesAccuracy = %g, want in [0.5, 1]", acc)
	}
}

func TestBayesAccuracySeparated(t *testing.T) {
	a := mustHistogram(t, 0, 10, 20)
	b := mustHistogram(t, 0, 10, 20)
	for i := 0; i < 100; i++ {
		a.Add(1)
		b.Add(9)
	}
	acc, err := BayesAccuracy(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("BayesAccuracy of separated data = %g, want 1", acc)
	}
}

func TestEmpiricalBasics(t *testing.T) {
	e, err := NewEmpirical([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 3 || e.Min() != 1 || e.Max() != 3 {
		t.Errorf("Len/Min/Max = %d/%g/%g, want 3/1/3", e.Len(), e.Min(), e.Max())
	}
}

func TestEmpiricalEmpty(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("NewEmpirical(nil) succeeded, want error")
	}
}

func TestEmpiricalDoesNotAliasInput(t *testing.T) {
	in := []float64{5, 4, 3}
	e, err := NewEmpirical(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 999
	if e.Max() != 5 {
		t.Errorf("Empirical aliased its input: Max = %g, want 5", e.Max())
	}
}

func TestCDFAt(t *testing.T) {
	e, err := NewEmpirical([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := e.CDFAt(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDFAt(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestThresholdAccuracySeparable(t *testing.T) {
	lo, _ := NewEmpirical([]float64{1, 1.5, 2})
	hi, _ := NewEmpirical([]float64{8, 9, 10})
	acc, th := ThresholdAccuracy(lo, hi)
	if acc != 1 {
		t.Errorf("accuracy = %g, want 1", acc)
	}
	if th <= 2 || th >= 8 {
		t.Errorf("threshold = %g, want in (2, 8)", th)
	}
}

func TestThresholdAccuracyOverlapping(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	a, _ := NewEmpirical(xs)
	b, _ := NewEmpirical(xs)
	acc, _ := ThresholdAccuracy(a, b)
	if acc < 0.5 || acc > 0.7 {
		t.Errorf("accuracy of identical samples = %g, want near 0.5", acc)
	}
}

func TestThresholdAccuracyAtLeastBaseline(t *testing.T) {
	// Even adversarially ordered data must never beat-proof below the
	// majority-class baseline of 0.5 for balanced sets.
	a, _ := NewEmpirical([]float64{10, 11, 12})
	b, _ := NewEmpirical([]float64{1, 2, 3})
	acc, _ := ThresholdAccuracy(a, b)
	if acc < 0.5 {
		t.Errorf("accuracy = %g, want >= 0.5", acc)
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	// Population variance of this classic set is 4; unbiased sample
	// variance is 32/7.
	if want := 32.0 / 7.0; math.Abs(s.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", s.Variance(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Error("empty Summary should report zero moments")
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Microsecond)
	if math.Abs(s.Mean()-1.5) > 1e-12 {
		t.Errorf("AddDuration mean = %g ms, want 1.5", s.Mean())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole, left, right Summary
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Add(x)
		if i%2 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("merged Mean = %g, want %g", left.Mean(), whole.Mean())
	}
	if math.Abs(left.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged Variance = %g, want %g", left.Variance(), whole.Variance())
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Errorf("merged Min/Max = %g/%g, want %g/%g", left.Min(), left.Max(), whole.Min(), whole.Max())
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 {
		t.Errorf("merge with empty changed N to %d", a.N())
	}
	var c Summary
	c.Merge(&a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 1 {
		t.Errorf("merge into empty: N=%d Mean=%g, want 1/1", c.N(), c.Mean())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("empty Ratio should be 0")
	}
	r.RecordHit()
	r.RecordMiss()
	r.RecordHit()
	r.RecordMiss()
	if r.Value() != 0.5 {
		t.Errorf("Value = %g, want 0.5", r.Value())
	}
	if r.Percent() != 50 {
		t.Errorf("Percent = %g, want 50", r.Percent())
	}
}

// Property: total variation is symmetric and within [0, 1].
func TestTotalVariationProperties(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := mustHistogram(t, 0, 1, 16)
		b := mustHistogram(t, 0, 1, 16)
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		for i := 0; i < 64; i++ {
			a.Add(ra.Float64())
			b.Add(rb.Float64())
		}
		ab, err1 := TotalVariation(a, b)
		ba, err2 := TotalVariation(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab == ba && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Summary.Merge is order-insensitive for N and Mean.
func TestSummaryMergeCommutesProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a1, b1, a2, b2 Summary
		for _, x := range xs {
			a1.Add(x)
			a2.Add(x)
		}
		for _, y := range ys {
			b1.Add(y)
			b2.Add(y)
		}
		a1.Merge(&b1) // xs then ys
		b2.Merge(&a2) // ys then xs
		if a1.N() != b2.N() {
			return false
		}
		if a1.N() == 0 {
			return true
		}
		return math.Abs(a1.Mean()-b2.Mean()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: empirical CDF is monotone nondecreasing.
func TestEmpiricalCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe1, probe2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewEmpirical(xs)
		if err != nil {
			return false
		}
		lo, hi := probe1, probe2
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		return e.CDFAt(lo) <= e.CDFAt(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
