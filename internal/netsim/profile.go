package netsim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profiler is the simulator's wall-clock self-profiler: it samples
// every Nth executed event and attributes real elapsed time and heap
// allocation to (phase, event-kind) buckets, answering "where does a
// sweep actually spend its CPU" with data instead of guesses.
//
// The profiler reads the wall clock and runtime.MemStats — both
// explicitly forbidden inputs to simulation logic — but only observes:
// nothing it measures feeds back into virtual time, event order, or
// RNG draws, so results are byte-identical with or without it. The
// waivers below mark exactly that boundary.
//
// One Profiler may be shared across simulators (a sweep attaches the
// same instance to every cell); the mutex makes accumulation safe
// under parallel cells. Caveat: MemStats counters are process-global,
// so with parallel cells a sample's allocation delta includes other
// workers' allocations — per-bucket bytes are attribution hints, not
// exact costs. Run serially for precise numbers.
type Profiler struct {
	sampleEvery uint64

	mu      sync.Mutex
	seen    uint64
	buckets map[profileKey]*profileBucket
}

type profileKey struct {
	phase string
	kind  EventKind
}

type profileBucket struct {
	events  uint64 // all events in the bucket, sampled or not
	samples uint64
	wall    time.Duration
	allocs  uint64
	bytes   uint64
}

// NewProfiler builds a profiler sampling every Nth event; n <= 1
// samples every event (most accurate, most overhead).
func NewProfiler(n int) *Profiler {
	if n < 1 {
		n = 1
	}
	return &Profiler{
		sampleEvery: uint64(n),
		buckets:     make(map[profileKey]*profileBucket),
	}
}

// observe runs call(arg), measuring it when the global sample counter
// says so.
func (p *Profiler) observe(phase string, kind EventKind, call func(any), arg any) {
	key := profileKey{phase: phase, kind: kind}
	p.mu.Lock()
	b := p.buckets[key]
	if b == nil {
		b = &profileBucket{}
		p.buckets[key] = b
	}
	b.events++
	p.seen++
	sampled := p.seen%p.sampleEvery == 0
	p.mu.Unlock()
	if !sampled {
		call(arg)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //ndnlint:allow simdeterminism — observing wall time; never feeds virtual time
	call(arg)
	elapsed := time.Since(start) //ndnlint:allow simdeterminism — observing wall time; never feeds virtual time
	runtime.ReadMemStats(&after)
	p.mu.Lock()
	b.samples++
	b.wall += elapsed
	b.allocs += after.Mallocs - before.Mallocs
	b.bytes += after.TotalAlloc - before.TotalAlloc
	p.mu.Unlock()
}

// ProfileEntry is one (phase, kind) bucket of the report.
type ProfileEntry struct {
	Phase   string
	Kind    EventKind
	Events  uint64
	Samples uint64
	// Wall, Allocs and Bytes cover sampled events only; scale by
	// Events/Samples for a whole-bucket estimate.
	Wall   time.Duration
	Allocs uint64
	Bytes  uint64
}

// Report returns every bucket sorted by phase then kind — a stable
// order regardless of map iteration.
func (p *Profiler) Report() []ProfileEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfileEntry, 0, len(p.buckets))
	for key, b := range p.buckets {
		out = append(out, ProfileEntry{
			Phase:   key.phase,
			Kind:    key.kind,
			Events:  b.events,
			Samples: b.samples,
			Wall:    b.wall,
			Allocs:  b.allocs,
			Bytes:   b.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Render formats the report as an aligned table.
func (p *Profiler) Render() string {
	entries := p.Report()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %10s %9s %12s %10s %12s\n",
		"phase", "kind", "events", "samples", "wall", "allocs", "bytes")
	for _, e := range entries {
		phase := e.Phase
		if phase == "" {
			phase = "(none)"
		}
		fmt.Fprintf(&b, "%-14s %-14s %10d %9d %12v %10d %12d\n",
			phase, e.Kind, e.Events, e.Samples, e.Wall, e.Allocs, e.Bytes)
	}
	return b.String()
}
