//go:build !linux

package rt

// newAlarm returns the portable alarm. The millisecond rounding
// alarm_linux.go works around is epoll_wait's; kqueue takes its timeout
// in nanoseconds, so there a time.Timer already fires when asked.
// (Windows builds and runs on the same timer; its resolution has not
// been measured here.)
func newAlarm() alarm { return newTimerAlarm() }
