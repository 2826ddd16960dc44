package netsim

import "time"

// Queue is the pending-event queue both executors run on: Simulator
// pops it on the virtual clock, rt.Executor on the wall clock. It is a
// value-typed 4-ary min-heap ordered on (At, push order), so events with
// equal deadlines leave in the order they were pushed — on either clock.
// A Queue is not safe for concurrent use; the zero value is empty.
type Queue struct {
	events []Event
	seq    uint64
}

// Event is one queued callback, stored by value in the heap: Call(Arg)
// is due at At. Kind tags it for the simulator's self-profiler and has
// no effect on ordering.
type Event struct {
	At   time.Duration
	seq  uint64 // push order, the tiebreak for equal deadlines
	Call func(any)
	Arg  any
	Kind EventKind
}

// before is the queue's total order: earlier deadline first, push order
// among equal deadlines. seq is unique, so no two events compare equal
// and execution order is independent of the heap's shape.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// heapArity is the heap's branching factor: four children per node
// halve a binary heap's depth, so a sift moves half as many 48-byte
// events; the extra compares per level read adjacent slots.
const heapArity = 4

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.events) }

// Head returns the earliest deadline. The queue must not be empty.
func (q *Queue) Head() time.Duration { return q.events[0].At }

// Push adds ev to the heap (sift-up from the new last slot).
func (q *Queue) Push(ev Event) {
	q.seq++
	ev.seq = q.seq
	h := append(q.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	q.events = h
}

// Pop removes and returns the earliest event; the queue must not be
// empty. The vacated last slot is zeroed so the queue keeps no
// reference to an executed callback or its packet.
func (q *Queue) Pop() Event {
	h := q.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = Event{}
	h = h[:n]
	q.events = h
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		end := min(first+heapArity, n)
		least := first
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}
