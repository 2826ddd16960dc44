package netsim

import (
	"strings"
	"testing"
	"time"
)

func TestRunUntilIdleDrains(t *testing.T) {
	s := New(1)
	fired := 0
	for i := 0; i < 10; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("fired %d events, want 10", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending", s.Pending())
	}
}

func TestRunUntilIdleStopsSelfRescheduler(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.Schedule(time.Millisecond, loop) }
	s.Schedule(0, loop)
	err := s.RunUntilIdle(500)
	if err == nil {
		t.Fatal("expected an error for a self-rescheduling event loop")
	}
	if !strings.Contains(err.Error(), "not idle after 500 events") {
		t.Fatalf("unexpected error: %v", err)
	}
	if s.Steps() != 500 {
		t.Fatalf("executed %d steps, want exactly 500", s.Steps())
	}
	// The simulation remains usable: the guard stops it without
	// corrupting the queue.
	if s.Pending() == 0 {
		t.Fatal("pending event should survive the guard")
	}
}

func TestRunUntilIdleExactBudget(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	// Budget exactly equal to the queued work must drain cleanly.
	if err := s.RunUntilIdle(5); err != nil {
		t.Fatal(err)
	}
}
