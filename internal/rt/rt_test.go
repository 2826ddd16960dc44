package rt

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndnprivacy/internal/netsim"
)

// alarms lists the alarms an executor can sleep on here: the one New
// picks for the platform and the portable one — Linux's fallback, and the
// same thing twice elsewhere.
var alarms = []struct {
	name  string
	build func() alarm
}{
	{"platform", newAlarm},
	{"portable", func() alarm { return newTimerAlarm() }},
}

// onEachAlarm runs test against an executor on each alarm.
func onEachAlarm(t *testing.T, test func(t *testing.T, e *Executor)) {
	for _, impl := range alarms {
		t.Run(impl.name, func(t *testing.T) {
			e := newWith(1, impl.build())
			defer e.Close()
			test(t, e)
		})
	}
}

// TestAlarmSleep is the alarm contract on a fresh alarm, where no stale
// expiry excuses an early return: sleep lasts d unless wake delivers
// first.
func TestAlarmSleep(t *testing.T) {
	for _, impl := range alarms {
		t.Run(impl.name, func(t *testing.T) {
			a := impl.build()
			defer a.close()
			wake := make(chan struct{}, 1)
			for _, d := range []time.Duration{time.Nanosecond, time.Microsecond, 300 * time.Microsecond, 3 * time.Millisecond} {
				start := time.Now()
				a.sleep(d, wake)
				if got := time.Since(start); got < d || got > d+time.Second {
					t.Errorf("sleep(%v) lasted %v", d, got)
				}
			}
			wake <- struct{}{}
			start := time.Now()
			a.sleep(time.Hour, wake)
			if got := time.Since(start); got > time.Second {
				t.Errorf("sleep(1h) with a wake-up waiting lasted %v", got)
			}
		})
	}
}

// earlyAlarm never sleeps to a deadline: every sleep returns at once,
// as if a stale expiry were always waiting.
type earlyAlarm struct{}

func (earlyAlarm) sleep(time.Duration, <-chan struct{}) {}
func (earlyAlarm) close()                               {}

// TestEarlyAlarmReturnNeverRunsCallbackEarly: the loop takes an alarm's
// return as "look again", not as "the deadline passed" — an early one
// costs a pass, and the callback still waits for the clock.
func TestEarlyAlarmReturnNeverRunsCallbackEarly(t *testing.T) {
	e := newWith(1, earlyAlarm{})
	defer e.Close()
	const delay = 2 * time.Millisecond
	done := make(chan time.Duration)
	for i := 0; i < 20; i++ {
		scheduled := time.Now()
		e.Schedule(delay, func() { done <- time.Since(scheduled) })
		if elapsed := <-done; elapsed < delay {
			t.Fatalf("callback ran %v after Schedule(%v)", elapsed, delay)
		}
	}
}

// countingAlarm counts the times the loop sleeps on it.
type countingAlarm struct {
	alarm
	armed atomic.Int32
}

func (c *countingAlarm) sleep(d time.Duration, wake <-chan struct{}) {
	c.armed.Add(1)
	c.alarm.sleep(d, wake)
}

// TestZeroDelayEventsNeverArmTheAlarm: every packet is a zero-delay
// event, and the alarm's system call is not on that path — however they
// are scheduled, the loop waits for them on its wake-up channel alone.
func TestZeroDelayEventsNeverArmTheAlarm(t *testing.T) {
	counting := &countingAlarm{alarm: newAlarm()}
	e := newWith(1, counting)
	defer e.Close()
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		wg.Add(3)
		e.ScheduleCall(0, netsim.EventForward, func(any) {
			e.Schedule(0, wg.Done) // re-entrant, as a pipeline stage schedules the next
			wg.Done()
		}, nil)
		go e.Schedule(-time.Second, wg.Done)
		if i%50 == 0 {
			wg.Wait() // let the loop run dry and go to sleep now and then
		}
	}
	wg.Wait()
	if n := counting.armed.Load(); n != 0 {
		t.Errorf("the loop armed its alarm %d times for zero-delay events", n)
	}
	// Far enough ahead that the loop cannot find it already due.
	done := make(chan struct{})
	e.Schedule(50*time.Millisecond, func() { close(done) })
	<-done
	if n := counting.armed.Load(); n == 0 {
		t.Error("a delayed event never armed the alarm: the count above proves nothing")
	}
}

// TestEarlierDeadlineWakesSleepingLoop: a loop asleep towards a far
// deadline re-arms when an earlier one is scheduled, and wakes for it.
func TestEarlierDeadlineWakesSleepingLoop(t *testing.T) {
	onEachAlarm(t, func(t *testing.T, e *Executor) {
		e.Schedule(time.Hour, func() { t.Error("an event an hour ahead ran") })
		time.Sleep(5 * time.Millisecond) // let the loop go to sleep on it
		const delay = 2 * time.Millisecond
		done := make(chan time.Duration, 1)
		scheduled := time.Now()
		e.Schedule(delay, func() { done <- time.Since(scheduled) })
		select {
		case elapsed := <-done:
			if elapsed < delay {
				t.Errorf("callback ran %v after Schedule(%v)", elapsed, delay)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the loop slept through a deadline scheduled while it was asleep")
		}
	})
}

func TestScheduleRunsCallback(t *testing.T) {
	e := New(1)
	defer e.Close()
	done := make(chan struct{})
	e.Schedule(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("callback never ran")
	}
}

func TestNowAdvances(t *testing.T) {
	e := New(1)
	defer e.Close()
	before := e.Now()
	time.Sleep(10 * time.Millisecond)
	if after := e.Now(); after <= before {
		t.Errorf("Now did not advance: %v → %v", before, after)
	}
}

func TestCallbacksAreSerialized(t *testing.T) {
	onEachAlarm(t, func(t *testing.T, e *Executor) {
		var inCallback int32
		var violations int32
		var wg sync.WaitGroup
		for i := 0; i < 200; i++ {
			wg.Add(1)
			e.Schedule(time.Duration(i%5)*time.Millisecond, func() {
				defer wg.Done()
				if atomic.AddInt32(&inCallback, 1) != 1 {
					atomic.AddInt32(&violations, 1)
				}
				time.Sleep(50 * time.Microsecond)
				atomic.AddInt32(&inCallback, -1)
			})
		}
		wg.Wait()
		if violations != 0 {
			t.Errorf("%d concurrent callback executions", violations)
		}
	})
}

// TestConcurrentSchedulersSerialized: work handed in from application
// goroutines is serialized with everything else on the executor, so an
// unsynchronised counter loses no update.
func TestConcurrentSchedulersSerialized(t *testing.T) {
	e := New(1)
	defer e.Close()
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(2)
		e.Schedule(0, func() { counter++; wg.Done() })
		go e.Schedule(0, func() { counter++; wg.Done() })
	}
	wg.Wait()
	total := make(chan int, 1)
	e.Schedule(0, func() { total <- counter })
	if got := <-total; got != 200 {
		t.Errorf("counter = %d, want 200 (lost updates imply a race)", got)
	}
}

func TestCloseDropsPending(t *testing.T) {
	e := New(1)
	var ran int32
	e.Schedule(50*time.Millisecond, func() { atomic.AddInt32(&ran, 1) })
	e.Close()
	time.Sleep(80 * time.Millisecond)
	if atomic.LoadInt32(&ran) != 0 {
		t.Error("callback ran after Close")
	}
	// Scheduling after Close is a silent no-op.
	e.Schedule(0, func() { atomic.AddInt32(&ran, 1) })
	e.ScheduleCall(0, netsim.EventTimer, func(any) { atomic.AddInt32(&ran, 1) }, nil)
	time.Sleep(20 * time.Millisecond)
	if atomic.LoadInt32(&ran) != 0 {
		t.Error("work executed on a closed executor")
	}
	e.Close() // idempotent
}

func TestRandConcurrentSafety(t *testing.T) {
	e := New(7)
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Rand().Uint64()
				e.Rand().Int63()
			}
		}()
	}
	wg.Wait() // the race detector validates this test
}

// TestConcurrentScheduleCloseStress hammers the executor from many
// goroutines — scheduling (including re-entrantly from callbacks),
// drawing randomness — while Close lands mid-flight. The race detector
// validates the lockedSource and the queue's one mutex; the test ending
// validates that neither Schedule nor Close can block on a closing
// executor.
func TestConcurrentScheduleCloseStress(t *testing.T) {
	for round := 0; round < 10; round++ {
		e := New(int64(round))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					e.Schedule(time.Duration(i%3)*time.Millisecond, func() {
						e.Rand().Uint64()
						e.Schedule(0, func() {}) // re-entrant schedule
					})
					e.ScheduleCall(0, netsim.EventForward, func(any) { e.Rand().Int63() }, nil)
					_ = e.Now()
				}
			}(g)
		}
		// Close while schedulers are still running.
		time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		e.Close()
		wg.Wait()
	}
}

func TestLockedSourceSeed(t *testing.T) {
	src, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		t.Fatal("rand.NewSource does not implement Source64")
	}
	s := &lockedSource{src: src}
	a := s.Uint64()
	s.Seed(1)
	if b := s.Uint64(); a != b {
		t.Errorf("re-seeded source diverged: %d vs %d", a, b)
	}
}

// TestEqualDeadlinesRunInScheduleOrder: zero-delay events scheduled
// from one goroutine run in the order they were scheduled — two
// interests read back-to-back from one connection must reach the
// pipeline in that order.
func TestEqualDeadlinesRunInScheduleOrder(t *testing.T) {
	e := New(1)
	defer e.Close()
	const n = 20000
	order := make([]int, 0, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(0, func() {
			order = append(order, i)
			if len(order) == n {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks never finished")
	}
	misplaced := 0
	for pos, id := range order {
		if id != pos {
			misplaced++
		}
	}
	if misplaced != 0 {
		t.Errorf("%d of %d zero-delay callbacks ran out of schedule order", misplaced, n)
	}
}

// scheduler is the scheduling surface netsim.Simulator and Executor
// share.
type scheduler interface {
	Schedule(delay time.Duration, fn func())
	ScheduleTagged(delay time.Duration, kind netsim.EventKind, fn func())
	ScheduleCall(delay time.Duration, kind netsim.EventKind, call func(any), arg any)
}

// orderScript schedules one fixed scenario on s — mixed delays, equal
// deadlines, a negative delay, nested scheduling, all three scheduling
// forms — from inside a callback, and calls finish with the labels in
// execution order. Every comparison the scenario depends on is one the
// wall clock decides the same way as the virtual clock: distinct
// deadlines are a whole unit apart, and equal virtual deadlines are
// stamped in scheduling order.
func orderScript(s scheduler, unit time.Duration, finish func(order []string)) {
	var order []string
	mark := func(label string) func() { return func() { order = append(order, label) } }
	markArg := func(label any) { order = append(order, label.(string)) }
	s.Schedule(0, func() {
		s.Schedule(2*unit, mark("A"))
		s.ScheduleTagged(unit, netsim.EventTimer, func() {
			order = append(order, "B")
			s.Schedule(unit, mark("B1"))
			s.ScheduleCall(unit, netsim.EventLink, markArg, "B2")
		})
		s.ScheduleCall(unit, netsim.EventForward, func(any) {
			order = append(order, "C")
			s.ScheduleTagged(0, netsim.EventApp, mark("C0"))
			s.Schedule(unit, mark("C1"))
		}, nil)
		s.Schedule(0, func() {
			order = append(order, "D")
			s.ScheduleCall(0, netsim.EventForward, markArg, "D0")
		})
		s.ScheduleCall(0, netsim.EventLink, markArg, "E")
		s.ScheduleTagged(-time.Second, netsim.EventTimer, mark("F"))
		s.Schedule(4*unit, func() {
			order = append(order, "G")
			finish(order)
		})
	})
}

// TestSameOrderAsSimulator: one scripted schedule produces the same
// callback order on the virtual and on the wall clock.
func TestSameOrderAsSimulator(t *testing.T) {
	const unit = 50 * time.Millisecond
	var want []string
	sim := netsim.New(1)
	orderScript(sim, unit, func(order []string) { want = order })
	sim.Run()
	if got := strings.Join(want, " "); got != "D E F D0 B C C0 A B1 B2 C1 G" {
		t.Fatalf("simulator order = %s", got)
	}

	onEachAlarm(t, func(t *testing.T, e *Executor) {
		done := make(chan []string, 1)
		orderScript(e, unit, func(order []string) { done <- order })
		select {
		case got := <-done:
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("wall-clock order = %v, simulator order = %v", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("script never finished")
		}
	})
}

// TestDueTimerRunsBeforeLaterZeroDelay: order is by deadline, not by
// which events happen to be runnable — a timer that fell due while the
// executor was busy still runs before zero-delay work scheduled after
// its deadline.
func TestDueTimerRunsBeforeLaterZeroDelay(t *testing.T) {
	onEachAlarm(t, func(t *testing.T, e *Executor) {
		gate := make(chan struct{})
		e.Schedule(0, func() { <-gate })
		var order []string
		done := make(chan struct{})
		e.Schedule(time.Millisecond, func() { order = append(order, "timer") })
		time.Sleep(5 * time.Millisecond)
		e.Schedule(0, func() { order = append(order, "zero"); close(done) })
		close(gate)
		<-done
		if strings.Join(order, " ") != "timer zero" {
			t.Errorf("order = %v, want the due timer first", order)
		}
	})
}

// goroutinesBackTo waits for the goroutine count to come back down to
// base — closed executors exit asynchronously — and returns how many are
// left over; it gives up after five seconds.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// settledGoroutines returns the goroutine count once it has stopped
// moving (executors closed by earlier tests exit asynchronously).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next == n {
			return n
		}
		n = next
	}
	return n
}

// TestOneGoroutinePerExecutor: an executor is its loop goroutine plus at
// most one more for its alarm (the timerfd's reader), however much is
// scheduled on it, and Close releases both.
func TestOneGoroutinePerExecutor(t *testing.T) {
	base := settledGoroutines()
	e := New(1)
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		e.Schedule(time.Duration(i%4)*time.Millisecond, wg.Done)
	}
	if got := runtime.NumGoroutine() - base; got < 1 || got > 2 {
		t.Errorf("%d goroutines with 1000 events pending, want 1 or 2", got)
	}
	wg.Wait()
	e.Schedule(time.Hour, func() {})
	e.Close()
	if left := goroutinesBackTo(base); left > 0 {
		t.Errorf("%d goroutines left after Close", left)
	}
}

// TestCloseFromCallback: Close called by a running callback returns
// (the queue's lock is not held across callbacks), and nothing already
// queued or scheduled afterwards runs.
func TestCloseFromCallback(t *testing.T) {
	e := New(1)
	var late int32
	bump := func() { atomic.AddInt32(&late, 1) }
	closed := make(chan struct{})
	e.Schedule(0, func() {
		e.Schedule(0, bump)
		e.Schedule(time.Millisecond, bump)
		e.Close()
		e.Schedule(0, bump)
		close(closed)
	})
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked inside a callback")
	}
	time.Sleep(20 * time.Millisecond)
	if n := atomic.LoadInt32(&late); n != 0 {
		t.Errorf("%d events ran after Close", n)
	}
}
