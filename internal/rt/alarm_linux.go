package rt

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Why Linux gets its own alarm. An idle Go process parks its last thread
// in epoll_wait with the time to the next runtime timer as the timeout,
// and epoll_wait counts in whole milliseconds: the runtime rounds any
// wait under 1 ms up to 1 (netpoll_epoll.go: delay < 1e6 → waitms = 1;
// golang/go#44343). So once a process has anything in the poller — a
// daemon's sockets always are — a time.Timer set 200 µs ahead fires
// ≈ 0.9 ms late, and a disguised cache hit, which replays a
// sub-millisecond miss latency, answers a millisecond slower than the
// miss it imitates.
//
// A timerfd turns the deadline from a timeout into an event. The
// descriptor is non-blocking and registered with the runtime's poller,
// so a goroutine reading it parks there like a socket reader, and the
// thread asleep in epoll_wait is woken by the descriptor when the
// kernel's high-resolution timer fires, whatever timeout it went to
// sleep with.

// clockMonotonic is CLOCK_MONOTONIC from <time.h>; package syscall does
// not export it.
const clockMonotonic = 1

// itimerspec is struct itimerspec from <sys/timerfd.h>.
type itimerspec struct {
	interval syscall.Timespec // zero: one shot
	value    syscall.Timespec // relative expiry; zero disarms
}

// fdAlarm is the timerfd alarm. One goroutine (forward) reads expiries
// off the descriptor and hands them to the sleeping loop; it lives
// until close closes the file.
type fdAlarm struct {
	file *os.File
	conn syscall.RawConn

	// spec and errno are set's argument and result; set is built once so
	// that arming allocates nothing.
	spec  itimerspec
	errno syscall.Errno
	set   func(fd uintptr)

	// fired carries expiries from forward to sleep. Capacity one: the
	// loop only ever needs to know that it should look again.
	fired chan struct{}
}

// newAlarm returns the timerfd alarm, or the portable one when the
// kernel (or a sandbox's syscall filter) refuses a timerfd or the
// runtime cannot poll it.
func newAlarm() alarm {
	if a, err := newFDAlarm(); err == nil {
		return a
	}
	return newTimerAlarm()
}

func newFDAlarm() (*fdAlarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// NewFile registers a descriptor that is already non-blocking with
	// the poller. Everything after this goes through SyscallConn, never
	// through File.Fd: Fd puts the descriptor back into blocking mode, and
	// a blocked read pins a thread instead of parking a goroutine.
	a := &fdAlarm{file: os.NewFile(fd, "timerfd"), fired: make(chan struct{}, 1)}
	a.set = func(fd uintptr) {
		_, _, a.errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
	}
	if err := a.check(); err != nil {
		a.file.Close()
		return nil, err
	}
	go a.forward()
	return a, nil
}

// check finds out, before anything depends on it, whether the descriptor
// will do: the runtime polls it and the kernel lets it be armed.
func (a *fdAlarm) check() error {
	var err error
	if a.conn, err = a.file.SyscallConn(); err != nil {
		return err
	}
	// Only a polled file accepts deadlines: this is how to ask.
	if err := a.file.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	// A trial call, disarming: a filter that lets timerfd_create through
	// and refuses timerfd_settime shows here, not in sleep.
	return a.settime(0)
}

// settime arms the timer to expire once, d from now; zero disarms it.
func (a *fdAlarm) settime(d time.Duration) error {
	a.spec.value = syscall.NsecToTimespec(int64(d))
	if err := a.conn.Control(a.set); err != nil {
		return err
	}
	if a.errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", a.errno)
	}
	return nil
}

// forward parks in the poller until the timer expires, tells sleep, and
// parks again. The send never blocks: a full slot already says "look
// again". It returns when close closes the file under it.
func (a *fdAlarm) forward() {
	var expirations [8]byte // the count read(2) returns; always 1 for a one-shot
	for {
		if _, err := a.file.Read(expirations[:]); err != nil {
			return
		}
		select {
		case a.fired <- struct{}{}:
		default:
		}
	}
}

func (a *fdAlarm) sleep(d time.Duration, wake <-chan struct{}) {
	// Drop an expiry nobody collected. One can still arrive late —
	// forward may be between its read and its send — and end this sleep
	// early, which the alarm contract allows.
	select {
	case <-a.fired:
	default:
	}
	if err := a.settime(d); err != nil {
		// The trial call in check succeeded on this descriptor, so
		// only a bug in this file gets here; sleeping on would hang every
		// delayed event.
		panic("rt: " + err.Error())
	}
	select {
	case <-wake:
	case <-a.fired:
	}
}

func (a *fdAlarm) close() { a.file.Close() }
