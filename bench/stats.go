package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Segment and percentile maths, and the /proc parsers. Everything here
// is a pure function so the unit tests can pin it against fixtures.

// median returns the middle value (mean of the two middle values for an
// even count). It returns 0 for no values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// fastDecile returns the value that a tenth of the values (rounded
// down) are faster than: the fifth best of forty, the second best of
// fifteen, the best of fewer than ten. higherIsFaster says which end is
// the fast one. It returns 0 for no values.
func fastDecile(values []float64, higherIsFaster bool) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	faster := len(sorted) / 10
	if higherIsFaster {
		return sorted[len(sorted)-1-faster]
	}
	return sorted[faster]
}

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("fewer than ten samples beyond the percentile")

// minSamplesBeyond is how many samples must lie above a reported
// percentile: with fewer, the value is one outlier's position, not a
// percentile.
const minSamplesBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, which must be in ascending order. It refuses a percentile
// with fewer than ten samples beyond it.
func percentile(sorted []uint32, p float64) (uint32, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(sorted)
	rank := int(math.Ceil(float64(n) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minSamplesBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", p, n, errTooFewSamples)
	}
	return sorted[rank-1], nil
}

// percentileOrZero is percentile for metric reporting: an unsupported
// percentile reads 0 and load.samples says why.
func percentileOrZero(sorted []uint32, p float64) float64 {
	v, err := percentile(sorted, p)
	if err != nil {
		return 0
	}
	return float64(v)
}

func sortedCopy(samples []uint32) []uint32 {
	out := append([]uint32(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median32 is the upper median of latency samples; 0 for none.
func median32(samples []uint32) uint32 {
	if len(samples) == 0 {
		return 0
	}
	sorted := sortedCopy(samples)
	return sorted[len(sorted)/2]
}

// procCPUTicks extracts utime+stime, in clock ticks, from the content
// of /proc/<pid>/stat. The command name may contain spaces and
// parentheses, so fields are counted from the last ')'.
func procCPUTicks(stat string) (uint64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	const utimeIdx, stimeIdx = 14 - 3, 15 - 3
	if len(fields) <= stimeIdx {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want more than %d", len(fields), stimeIdx)
	}
	utime, err := strconv.ParseUint(fields[utimeIdx], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[stimeIdx], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// schedstatRunNS extracts the time spent on a CPU, in nanoseconds, from
// the content of a schedstat file: the first of its three fields.
func schedstatRunNS(schedstat string) (uint64, error) {
	fields := strings.Fields(schedstat)
	if len(fields) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(fields))
	}
	ns, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat run time: %w", err)
	}
	return ns, nil
}

// procVmHWMkB extracts the peak resident set size, in kB, from the
// content of /proc/<pid>/status.
func procVmHWMkB(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, found := strings.CutPrefix(line, "VmHWM:")
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}
