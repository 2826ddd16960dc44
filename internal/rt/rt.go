// Package rt provides a wall-clock implementation of the forwarder's
// Executor contract, so the exact same NDN forwarding and cache-privacy
// code that runs under the discrete-event simulator also runs over real
// network connections (see internal/netface).
//
// The executor is the simulator's event queue (netsim.Queue) under a
// different clock: Schedule stamps each event with a wall-clock deadline
// and pushes it, and one loop goroutine pops events as they fall due and
// runs them, sleeping on an alarm set to the head deadline in between
// (a timerfd on Linux, a time.Timer elsewhere; see alarm.go).
// Callbacks are therefore strictly serialized — the single-threaded
// execution model forwarder state relies on — and run in (deadline,
// schedule order), exactly as under netsim.Simulator. Scheduling is safe
// from any goroutine, including from within callbacks (the queue's mutex
// is never held while a callback runs).
package rt

import (
	"math/rand"
	"sync"
	"time"

	"ndnprivacy/internal/netsim"
)

// Executor runs callbacks on the wall clock. Create with New; the zero
// value is not usable.
type Executor struct {
	epoch time.Time
	rng   *rand.Rand

	mu     sync.Mutex // guards queue and closed
	queue  netsim.Queue
	closed bool

	// wake tells the loop the head of the queue changed (or the executor
	// closed) while it may be asleep. Capacity one: a pending wake-up
	// already makes the loop look again, so further ones are dropped.
	wake chan struct{}
}

// New creates an executor whose Now starts at zero and whose randomness
// derives from seed, and starts its loop goroutine; Close stops it.
func New(seed int64) *Executor { return newWith(seed, newAlarm()) }

// newWith is New with the loop sleeping on the given alarm, which the
// loop owns from here on and closes when it stops.
func newWith(seed int64, a alarm) *Executor {
	src, _ := rand.NewSource(seed).(rand.Source64) // math/rand sources implement Source64
	e := &Executor{
		epoch: time.Now(),
		rng:   rand.New(&lockedSource{src: src}),
		wake:  make(chan struct{}, 1),
	}
	go e.loop(a)
	return e
}

// Now implements fwd.Executor: the wall-clock offset since creation.
func (e *Executor) Now() time.Duration { return time.Since(e.epoch) }

// Rand implements fwd.Executor. The returned source is safe for
// concurrent use.
func (e *Executor) Rand() *rand.Rand { return e.rng }

// Schedule implements fwd.Executor: fn runs after delay, serialized with
// every other callback. Callbacks scheduled after Close are dropped.
// Safe to call from within callbacks.
func (e *Executor) Schedule(delay time.Duration, fn func()) {
	e.ScheduleCall(delay, netsim.EventOther, callFunc, fn)
}

// ScheduleTagged is Schedule; the kind feeds the simulator's
// self-profiler and is ignored on the wall clock.
func (e *Executor) ScheduleTagged(delay time.Duration, kind netsim.EventKind, fn func()) {
	e.ScheduleCall(delay, kind, callFunc, fn)
}

// ScheduleCall queues call(arg) to run after delay: the closure-free
// form the forwarder uses for per-packet events, as on the simulator.
// Events run in deadline order, and in scheduling order among equal
// deadlines; the deadline is stamped under the queue's lock, so
// zero-delay events run in the order they were scheduled.
func (e *Executor) ScheduleCall(delay time.Duration, kind netsim.EventKind, call func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	at := e.Now() + delay
	newHead := e.queue.Len() == 0 || at < e.queue.Head()
	e.queue.Push(netsim.Event{At: at, Call: call, Arg: arg, Kind: kind})
	e.mu.Unlock()
	if newHead {
		e.signal()
	}
}

// callFunc is the handler behind Schedule/ScheduleTagged: the callback
// itself rides in arg.
func callFunc(arg any) { arg.(func())() }

func (e *Executor) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// loop is the executor's one goroutine: it runs every event that is due,
// in queue order, then sleeps until the head deadline or a wake-up.
// Whatever ends the sleep, the next pass reads the clock and the head
// again, so an alarm that returns early costs one pass and never runs a
// callback before its deadline.
func (e *Executor) loop(a alarm) {
	defer a.close()
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		if e.queue.Len() == 0 {
			e.mu.Unlock()
			<-e.wake
			continue
		}
		wait := e.queue.Head() - e.Now()
		if wait <= 0 {
			ev := e.queue.Pop()
			e.mu.Unlock()
			ev.Call(ev.Arg)
			continue
		}
		e.mu.Unlock()
		a.sleep(wait, e.wake)
	}
}

// Close drops every pending event and future Schedule calls, and stops
// the loop goroutine. It is idempotent and safe to call from any
// goroutine, including from within a callback: a callback that is
// executing completes (Close does not wait for it), and nothing runs
// after it.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.queue = netsim.Queue{}
	e.mu.Unlock()
	e.signal()
}

// lockedSource makes a rand.Source64 safe for concurrent use.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}
