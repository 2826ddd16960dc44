package rt

import "time"

// alarm is how the executor's loop sleeps until the head deadline. Go's
// own timers cannot be trusted with that on Linux — see alarm_linux.go —
// so the sleep sits behind this seam: newAlarm picks the platform's
// implementation, and the loop never learns which it got.
type alarm interface {
	// sleep blocks until d (positive) has elapsed or wake delivers,
	// whichever comes first. It may also return early, on an expiry left
	// over from an earlier, since-replaced deadline: the caller treats
	// every return as "look at the clock and the queue again", never as
	// "the deadline passed".
	sleep(d time.Duration, wake <-chan struct{})
	// close releases what the alarm holds. Nothing sleeps on it afterwards.
	close()
}

// timerAlarm is the portable alarm, a time.Timer: what every platform
// but Linux sleeps on (kqueue takes its timeout in nanoseconds, so the
// BSDs and macOS have nothing to fix), and the run-time fallback on
// Linux when the kernel refuses a timerfd.
type timerAlarm struct{ timer *time.Timer }

func newTimerAlarm() *timerAlarm {
	return &timerAlarm{timer: time.NewTimer(0)}
}

func (a *timerAlarm) sleep(d time.Duration, wake <-chan struct{}) {
	// Stop-and-drain before Reset, so a stale expiry cannot cut this
	// sleep short.
	if !a.timer.Stop() {
		select {
		case <-a.timer.C:
		default:
		}
	}
	a.timer.Reset(d)
	select {
	case <-wake:
	case <-a.timer.C:
	}
}

func (a *timerAlarm) close() { a.timer.Stop() }
