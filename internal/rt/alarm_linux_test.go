package rt

import (
	"net"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// parkConnInPoller leaves a loopback TCP connection with a blocked
// reader for the rest of the test, as ndnd always has: with a waiter in
// the poller an idle Go process sleeps in epoll_wait, which is where
// runtime timers lose their sub-millisecond resolution.
func parkConnInPoller(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var b [1]byte
		_, _ = server.Read(b[:]) // returns when the cleanup closes the connection
	}()
	t.Cleanup(func() {
		client.Close()
		server.Close()
		ln.Close()
		<-readerDone
	})
}

// requireFDAlarm skips — it does not pass — where New falls back to the
// portable alarm: nothing below holds on runtime timers.
func requireFDAlarm(t *testing.T) {
	t.Helper()
	a := newAlarm()
	defer a.close()
	if _, ok := a.(*fdAlarm); !ok {
		t.Skip("timerfd unavailable: the executor runs on the portable alarm, whose deadlines Linux quantises to milliseconds")
	}
}

// lateness schedules n events delay ahead, one after the other, and
// returns how late each callback started, sorted. Each is scheduled from
// inside a callback, as the delayed serve of a disguised hit is, so the
// loop finds it the moment it looks for more work.
func lateness(t *testing.T, e *Executor, n int, delay time.Duration) []time.Duration {
	t.Helper()
	late := make([]time.Duration, 0, n)
	done := make(chan time.Duration)
	for i := 0; i < n; i++ {
		e.Schedule(0, func() {
			scheduled := time.Now()
			e.Schedule(delay, func() { done <- time.Since(scheduled) })
		})
		select {
		case elapsed := <-done:
			if elapsed < delay {
				t.Fatalf("callback ran %v after Schedule(%v): before its deadline", elapsed, delay)
			}
			late = append(late, elapsed-delay)
		case <-time.After(5 * time.Second):
			t.Fatal("callback never ran")
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return late
}

// TestSubMillisecondDeadlines is the tentpole's pin: a deadline 200 µs
// ahead is honoured to within a fraction of a millisecond in a process
// that has a socket open. On a time.Timer the median below is ≈ 900 µs.
func TestSubMillisecondDeadlines(t *testing.T) {
	requireFDAlarm(t)
	parkConnInPoller(t)
	e := New(1)
	defer e.Close()
	// A busy neighbour on the machine can only add lateness, so the best
	// of three rounds is the code's; a timer tick fails all three.
	const rounds = 3
	for round := 1; ; round++ {
		late := lateness(t, e, 200, 200*time.Microsecond)
		median := late[len(late)/2]
		t.Logf("Schedule(200µs) lateness: p10 %v, p50 %v, p90 %v", late[len(late)/10], median, late[len(late)*9/10])
		// A deadline that is all but due must not be rounded up to the
		// poller's millisecond either.
		almostDue := lateness(t, e, 50, time.Microsecond)
		medianAlmostDue := almostDue[len(almostDue)/2]
		if median <= 300*time.Microsecond && medianAlmostDue <= 300*time.Microsecond {
			return
		}
		if round == rounds {
			t.Fatalf("median lateness %v for a 200µs deadline and %v for a 1µs one, want ≤ 300µs", median, medianAlmostDue)
		}
	}
}

func openDescriptors(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(entries)
}

// TestCloseReleasesAlarm: the timerfd and the goroutine reading it
// belong to the executor and go when it closes, pending events or not.
func TestCloseReleasesAlarm(t *testing.T) {
	baseGoroutines, baseFDs := settledGoroutines(), openDescriptors(t)
	executors := make([]*Executor, 100)
	for i := range executors {
		executors[i] = New(int64(i))
		executors[i].Schedule(time.Hour, func() { t.Error("an event an hour ahead ran") })
	}
	if got := runtime.NumGoroutine() - baseGoroutines; got > 2*len(executors) {
		t.Errorf("%d goroutines for %d executors, want at most two each", got, len(executors))
	}
	for _, e := range executors {
		e.Close()
	}
	if left := goroutinesBackTo(baseGoroutines); left > 0 {
		t.Errorf("%d goroutines left after closing every executor", left)
	}
	if got := openDescriptors(t); got != baseFDs {
		t.Errorf("%d descriptors left open after closing every executor", got-baseFDs)
	}
}

// TestArmingAllocatesNothing: a delayed event costs one timerfd_settime
// and no garbage.
func TestArmingAllocatesNothing(t *testing.T) {
	a, err := newFDAlarm()
	if err != nil {
		t.Skipf("timerfd unavailable: %v", err)
	}
	defer a.close()
	if n := testing.AllocsPerRun(100, func() {
		if err := a.settime(time.Hour); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("arming the timerfd: %.0f allocs/run, want 0", n)
	}
}

// TestStaleExpiryCostsOnePass: a sleep ended by a wake-up leaves the
// timer armed, and its expiry arrives with nobody waiting for it. That
// may cut one later sleep short — the loop then looks at the clock and
// sleeps again — but not a second one.
func TestStaleExpiryCostsOnePass(t *testing.T) {
	a, err := newFDAlarm()
	if err != nil {
		t.Skipf("timerfd unavailable: %v", err)
	}
	defer a.close()
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	a.sleep(time.Millisecond, wake) // ends on the wake-up, armed
	time.Sleep(5 * time.Millisecond)
	const d = 10 * time.Millisecond
	early := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		a.sleep(d, wake)
		if time.Since(start) < d {
			early++
		}
	}
	if early > 1 {
		t.Errorf("one stale expiry cut %d sleeps short", early)
	}
}
