// Package netsim is a deterministic discrete-event network simulator: a
// virtual clock, an event heap, seeded randomness, and point-to-point
// links with configurable propagation latency, jitter, bandwidth and
// loss. The NDN forwarding stack runs unmodified on top of it, which is
// what lets the repository reproduce the paper's timing experiments
// (Figure 3) without physical LAN/WAN testbeds: the attacks depend only
// on relative delays and jitter, which the simulator models explicitly.
package netsim

import (
	"math/rand"
	"time"

	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// EventKind classifies scheduled events for self-profiling: the
// profiler attributes wall-clock time and allocations to (phase, kind)
// buckets. Untagged events (plain Schedule) are EventOther.
type EventKind uint8

// Event kinds, in reporting order.
const (
	EventOther EventKind = iota
	EventLink
	EventForward
	EventCountermeasure
	EventTimer
	EventApp
	EventDisk

	eventKindCount
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventOther:
		return "other"
	case EventLink:
		return "link"
	case EventForward:
		return "forward"
	case EventCountermeasure:
		return "countermeasure"
	case EventTimer:
		return "timer"
	case EventApp:
		return "app"
	case EventDisk:
		return "disk"
	default:
		return "unknown"
	}
}

// Simulator owns the virtual clock and the pending event queue. It is
// strictly single-threaded: all node logic runs inside event callbacks.
type Simulator struct {
	now   time.Duration
	queue Queue // the heap rt.Executor also runs, there on the wall clock
	rng   *rand.Rand
	steps uint64

	metrics *telemetry.Registry
	sink    telemetry.Sink
	spans   *span.Tracer
	prof    *Profiler
	phase   string
}

// New creates a simulator whose randomness derives from seed, so that
// every run with the same seed is bit-for-bit reproducible.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic RNG. Callbacks must use this
// single source to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SetTelemetry attaches a metrics registry and trace sink to the run.
// The simulator is the natural carrier: everything simulated (links,
// forwarders, endpoints, probers) already holds a reference to it, so
// attaching telemetry here instruments the whole topology. Either
// argument may be nil to disable that half. Call before building the
// topology — components resolve their metrics at construction.
func (s *Simulator) SetTelemetry(reg *telemetry.Registry, sink telemetry.Sink) {
	s.metrics = reg
	s.sink = sink
}

// Metrics implements telemetry.Provider; nil when disabled.
func (s *Simulator) Metrics() *telemetry.Registry { return s.metrics }

// TraceSink implements telemetry.Provider; nil when disabled.
func (s *Simulator) TraceSink() telemetry.Sink { return s.sink }

// SetSpans attaches a span tracer to the run. Like SetTelemetry, call
// before building the topology: forwarders and stores resolve the
// tracer at construction. Nil disables span tracing (the default).
func (s *Simulator) SetSpans(tr *span.Tracer) { s.spans = tr }

// Spans implements telemetry.Provider; nil when disabled.
func (s *Simulator) Spans() *span.Tracer { return s.spans }

// SetProfiler attaches a wall-clock self-profiler sampling the event
// loop. The profiler observes real time and allocations but never
// feeds them back into virtual time, so simulation results stay
// byte-identical whether it is attached or not. Nil detaches.
func (s *Simulator) SetProfiler(p *Profiler) { s.prof = p }

// SetPhase labels subsequent events for the self-profiler ("build",
// "probe-miss", …). A no-op without an attached profiler beyond one
// string assignment.
func (s *Simulator) SetPhase(phase string) { s.phase = phase }

// Phase returns the current self-profiling phase label.
func (s *Simulator) Phase() string { return s.phase }

var _ telemetry.Provider = (*Simulator)(nil)

// Steps returns the number of executed events.
func (s *Simulator) Steps() uint64 { return s.steps }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.queue.Len() }

// Schedule queues fn to run after delay. Negative delays are clamped to
// zero (run "now", after currently executing events at this timestamp).
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	s.ScheduleTagged(delay, EventOther, fn)
}

// ScheduleTagged is Schedule with an event-kind tag for the
// self-profiler. The tag is observability-only: scheduling order and
// execution are identical for every kind.
func (s *Simulator) ScheduleTagged(delay time.Duration, kind EventKind, fn func()) {
	s.ScheduleCall(delay, kind, callFunc, fn)
}

// ScheduleCall queues call(arg) to run after delay. It is the
// allocation-free form of ScheduleTagged for per-packet events: the
// handler is bound once (at attach time) and the packet rides in arg,
// so nothing is allocated per event when arg is pointer-shaped.
// Ordering is shared with Schedule/ScheduleTagged.
func (s *Simulator) ScheduleCall(delay time.Duration, kind EventKind, call func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	s.queue.Push(Event{At: s.now + delay, Call: call, Arg: arg, Kind: kind})
}

// callFunc is the handler behind Schedule/ScheduleTagged: the callback
// itself rides in arg (func values are pointer-shaped, so boxing one
// does not allocate).
func callFunc(arg any) { arg.(func())() }

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.queue.Len() > 0 {
		s.step()
	}
}

// RunFor executes events until the virtual clock would pass deadline
// (absolute) or the queue drains, then sets the clock to the deadline.
func (s *Simulator) RunFor(deadline time.Duration) {
	for s.queue.Len() > 0 && s.queue.Head() <= deadline {
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *Simulator) step() {
	ev := s.queue.Pop()
	s.now = ev.At
	s.steps++
	if s.prof != nil {
		s.prof.observe(s.phase, ev.Kind, ev.Call, ev.Arg)
		return
	}
	ev.Call(ev.Arg)
}
