package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is what one workload process is asked to do.
type runConfig struct {
	workload string
	seed     int64
	// seconds is the measured time, spent in segments of segmentLength.
	seconds float64
	// short asks for a single set-up instead of the repeats setup_s is
	// the median of.
	short  bool
	outDir string
}

// system is one workload's system under test plus its load generator.
type system interface {
	// setUp builds the system and brings it to steady state; its
	// duration is setup_s.
	setUp() error
	// tearDown releases everything setUp acquired, on every path.
	tearDown()
	// segment applies load for about d and returns how many ops it
	// attempted and how many of them failed.
	segment(d time.Duration) (attempted, failed int, err error)
	// cpu returns the cumulative CPU time of the process hosting the
	// system under test.
	cpu() (time.Duration, error)
	// peakRSSkB returns that process's resident-set high-water mark
	// (traced run only: it moves too much between runs to carry a bound).
	peakRSSkB() (uint64, error)
	// verify checks the workload's invariants once the segments ran.
	verify() error
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a workload process prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult attaches units from specs to values and insists that every
// named metric is present, so a workload cannot silently drop one.
func newResult(specs []metricSpec, values map[string]float64, attempted, failed int) (runResult, error) {
	res := runResult{
		Correct:   true,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, spec := range specs {
		v, found := values[spec.Name]
		if !found {
			return res, fmt.Errorf("metric %s was not measured", spec.Name)
		}
		res.Metrics[spec.Name] = metricValue{Value: v, Unit: spec.Unit}
	}
	if len(values) != len(specs) {
		for name := range values {
			if _, known := res.Metrics[name]; !known {
				return res, fmt.Errorf("metric %s is not in the spec", name)
			}
		}
	}
	return res, nil
}

func (r runResult) print() error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// segmentSample is one timed segment's measurements.
type segmentSample struct {
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64 // heap objects the bench process allocated
	bytes     uint64 // and their size
	attempted int
	failed    int
}

// measured is what measure returns for the end-to-end metrics.
type measured struct {
	setupSeconds []float64
	segments     []segmentSample
}

func (m measured) totals() (attempted, failed int) {
	for _, s := range m.segments {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// endToEndValues reduces the segments to the end-to-end metrics. A
// timing is the fast-decile segment: on a shared machine a neighbour can
// only slow a segment down, never speed it up, so the fast end of the
// distribution follows the code and the middle follows the neighbours.
// The allocation counts do not depend on the machine and are medians, as
// is set-up.
func (m measured) endToEndValues() map[string]float64 {
	var rate, cpuPerOp, allocs, bytes []float64
	for _, s := range m.segments {
		good := float64(s.attempted - s.failed)
		if good <= 0 || s.wall <= 0 {
			continue
		}
		rate = append(rate, good/s.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(s.cpu.Nanoseconds())/1e3/good)
		allocs = append(allocs, float64(s.mallocs)/good)
		bytes = append(bytes, float64(s.bytes)/good)
	}
	return map[string]float64{
		"ops_per_s":          fastDecile(rate, true),
		"cpu_us_per_op":      fastDecile(cpuPerOp, false),
		"allocs_per_op":      median(allocs),
		"alloc_bytes_per_op": median(bytes),
		"setup_s":            median(m.setupSeconds),
	}
}

// setUpRepeatedly sets the system up until setup_s has enough samples:
// at least minSetups, then more while they are cheap (setupBudget in
// all, at most maxSetups), so a set-up of milliseconds is the median of
// many. Every system but the last is torn down again; the last is
// returned set up.
func setUpRepeatedly(build func() (system, error), cfg runConfig) (system, []float64, error) {
	var seconds []float64
	began := time.Now()
	for {
		start := time.Now()
		sys, err := build()
		if err != nil {
			return nil, seconds, err
		}
		if err := sys.setUp(); err != nil {
			sys.tearDown()
			return nil, seconds, fmt.Errorf("set-up: %w", err)
		}
		seconds = append(seconds, time.Since(start).Seconds())
		n := len(seconds)
		if cfg.short || n >= maxSetups || (n >= minSetups && time.Since(began) >= setupBudget) {
			return sys, seconds, nil
		}
		sys.tearDown()
		releaseMemory()
	}
}

// measure sets the system up (see setUpRepeatedly), runs timed segments
// back to back on it until cfg.seconds have been measured, and verifies.
// The system is torn down on every path.
func measure(build func() (system, error), cfg runConfig) (measured, error) {
	var m measured
	sys, setups, err := setUpRepeatedly(build, cfg)
	m.setupSeconds = setups
	if err != nil {
		return m, err
	}
	defer sys.tearDown()

	total := time.Duration(cfg.seconds * float64(time.Second))
	var before, after runtime.MemStats
	for spent := time.Duration(0); spent < total; {
		runtime.ReadMemStats(&before)
		cpu0, err := sys.cpu()
		if err != nil {
			return m, err
		}
		start := time.Now()
		attempted, failed, err := sys.segment(segmentLength)
		wall := time.Since(start)
		if err != nil {
			return m, fmt.Errorf("segment %d: %w", len(m.segments), err)
		}
		cpu1, err := sys.cpu()
		if err != nil {
			return m, err
		}
		runtime.ReadMemStats(&after)
		m.segments = append(m.segments, segmentSample{
			wall: wall, cpu: cpu1 - cpu0,
			mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
			attempted: attempted, failed: failed,
		})
		spent += wall
	}
	if err := sys.verify(); err != nil {
		return m, fmt.Errorf("verify: %w", err)
	}
	return m, nil
}

// releaseMemory returns a torn-down system's heap to the OS, so one
// set-up repeat does not inflate the next one's footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// It is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// pidCPU reads a process's CPU time; pid 0 means this process. It sums
// the exact per-thread run times the scheduler keeps
// (/proc/<pid>/task/*/schedstat, nanoseconds). The user+system times in
// /proc/<pid>/stat are sampled at the 10 ms tick, which misjudges a
// daemon that wakes for microseconds at a time; they are the fallback
// for kernels without scheduler statistics.
func pidCPU(pid int) (time.Duration, error) {
	dir := "/proc/self"
	if pid != 0 {
		dir = fmt.Sprintf("/proc/%d", pid)
	}
	if threads, err := filepath.Glob(dir + "/task/*/schedstat"); err == nil && len(threads) > 0 {
		var total time.Duration
		for _, path := range threads {
			raw, err := os.ReadFile(path)
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			ns, err := schedstatRunNS(string(raw))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			total += time.Duration(ns)
		}
		return total, nil
	}
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := procCPUTicks(string(stat))
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * clockTick, nil
}

// pidPeakRSSkB reads a process's VmHWM; pid 0 means this process.
func pidPeakRSSkB(pid int) (uint64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	status, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return procVmHWMkB(string(status))
}
