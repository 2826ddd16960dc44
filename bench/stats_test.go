package main

import (
	"errors"
	"sort"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestFastDecile(t *testing.T) {
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64((i*7)%40 + 1) // 1..40, shuffled
	}
	cases := []struct {
		in     []float64
		higher bool
		want   float64
	}{
		{nil, true, 0},
		{[]float64{7}, true, 7},
		{[]float64{3, 9, 5}, true, 9},  // fewer than ten: the best
		{[]float64{3, 9, 5}, false, 3}, // the best when lower is faster
		{forty, true, 36},              // four faster: 37..40
		{forty, false, 5},              // four faster: 1..4
		{forty[:15], true, 0},          // filled in below: the second best
	}
	first := append([]float64(nil), forty[:15]...)
	sort.Float64s(first)
	cases[len(cases)-1].want = first[13]
	for _, c := range cases {
		if got := fastDecile(c.in, c.higher); got != c.want {
			t.Errorf("fastDecile(%v, %v) = %v, want %v", c.in, c.higher, got, c.want)
		}
	}
	if forty[0] != 1 || forty[1] != 8 {
		t.Errorf("fastDecile reordered its argument: %v", forty[:2])
	}
}

func ascending(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	thousand := ascending(1000)
	cases := []struct {
		p    float64
		want uint32
	}{
		{50, 500}, // rank ceil(0.50*1000)
		{90, 900},
		{99, 990}, // exactly ten samples beyond
		{0.05, 1}, // rank ceil(0.5) = 1
	}
	for _, c := range cases {
		got, err := percentile(thousand, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %d, %v; want %d", c.p, got, err, c.want)
		}
	}
	if got, err := percentile(ascending(20000), 99.9); err != nil || got != 19980 {
		t.Errorf("p99.9 of 1..20000 = %d, %v; want 19980", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p99.9 of 1000 samples is the 999th: one sample beyond it.
	if _, err := percentile(ascending(1000), 99.9); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99.9 of 1000 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(ascending(999), 99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 999 samples (rank 990, 9 beyond): err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(nil, 50); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of nothing: err = %v, want errTooFewSamples", err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(ascending(100), p); err == nil {
			t.Errorf("percentile %g accepted", p)
		}
	}
	if got := percentileOrZero(ascending(1000), 99.9); got != 0 {
		t.Errorf("percentileOrZero on a thin tail = %v, want 0", got)
	}
}

func TestProcCPUTicks(t *testing.T) {
	const plain = "5857 (cat) R 5853 5857 5853 0 -1 4194304 81 0 0 0 12 34 0 0 20 0 1 0 230711 2703360 305 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0"
	if got, err := procCPUTicks(plain); err != nil || got != 46 {
		t.Errorf("plain stat: %d, %v; want 46", got, err)
	}
	// The command field may hold spaces and parentheses.
	const tricky = "77 (my (odd) name) S 1 77 77 0 -1 4194304 9 0 0 0 1000 2345 7 8 20 0 4 0 100 200 300 400"
	if got, err := procCPUTicks(tricky); err != nil || got != 3345 {
		t.Errorf("tricky stat: %d, %v; want 3345", got, err)
	}
	for _, bad := range []string{"", "12 cat R 1 2", "12 (cat) R 1 2 3", "5 (x) R 1 2 3 0 -1 0 0 0 0 0 abc 3 0 0"} {
		if _, err := procCPUTicks(bad); err == nil {
			t.Errorf("procCPUTicks(%q) accepted", bad)
		}
	}
}

func TestProcVmHWM(t *testing.T) {
	const status = "Name:\tndnd\nUmask:\t0022\nVmPeak:\t 1234567 kB\nVmSize:\t 1234000 kB\nVmHWM:\t   22564 kB\nVmRSS:\t   20000 kB\nThreads:\t7\n"
	if got, err := procVmHWMkB(status); err != nil || got != 22564 {
		t.Errorf("VmHWM = %d, %v; want 22564", got, err)
	}
	for _, bad := range []string{"", "Name:\tx\nVmRSS:\t 5 kB\n", "VmHWM:\t12\n", "VmHWM:\t twelve kB\n"} {
		if _, err := procVmHWMkB(bad); err == nil {
			t.Errorf("procVmHWMkB(%q) accepted", bad)
		}
	}
}
