package netface

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/rt"
)

// countingExec is an rt.Executor that counts Schedule calls, the form a
// face's reader schedules its reads in.
type countingExec struct {
	*rt.Executor
	schedules atomic.Int64
}

func (c *countingExec) Schedule(delay time.Duration, fn func()) {
	c.schedules.Add(1)
	c.Executor.Schedule(delay, fn)
}

// interestBurst encodes n interests for /<prefix>/<i> into one buffer.
func interestBurst(prefix string, n int) []byte {
	var burst []byte
	for i := range n {
		burst = ndn.AppendInterest(burst, ndn.NewInterest(ndn.MustParseName(fmt.Sprintf("/%s/%d", prefix, i)), uint64(i)+1))
	}
	return burst
}

// Ten interests a peer writes at once arrive in one read, and the read
// is one executor event that runs all ten through the forwarder.
func TestBurstIsOneReadAndOneEvent(t *testing.T) {
	exec := &countingExec{Executor: rt.New(5)}
	t.Cleanup(exec.Close)
	f, err := fwd.New(fwd.Config{Name: "R", Sim: exec})
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	t.Cleanup(func() { far.Close() })
	face, err := Attach(f, near, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { face.Close() })

	before := exec.schedules.Load()
	send(t, far, interestBurst("burst", 10)) // a pipe's Write returns once the reader has it all
	s := waitForFace(t, face, func(s Stats) bool { return s.Received == 10 && s.Reads > 0 })
	if s.Reads != 1 {
		t.Errorf("10 interests written at once took %d reads, want 1", s.Reads)
	}
	if got := exec.schedules.Load() - before; got != 1 {
		t.Errorf("one read scheduled %d executor events, want 1", got)
	}
	// No route: the router took every interest in and dropped it.
	waitForStat(t, f, func(s fwd.Stats) bool { return s.NoRouteDropped == 10 })
}

// A read holding more packets than burstCap does not hold up a timer
// that falls due while it is framed: the face runs burstCap packets,
// re-queues the rest behind the timer, and the timer — a disguised hit's
// delayed serve — runs between the two slices. The order is forced, not
// raced: the executor is held while the flood is read and the timer is
// armed, and released only once the timer is due.
func TestFloodYieldsToDueTimer(t *testing.T) {
	exec := rt.New(3)
	t.Cleanup(exec.Close)
	strategy, err := core.NewConstantDelay(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := core.NewDelayManager(strategy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fwd.New(fwd.Config{Name: "R", Sim: exec, Store: cache.MustNewStore(16, cache.NewLRU()), Manager: manager})
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	t.Cleanup(func() { far.Close() })
	flood, err := Attach(f, near, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flood.Close() })

	// The victim is a custom face with a private object cached for it;
	// when its delayed serve goes out, it notes how many interests the
	// router had taken in.
	private := mustData(t, "/p/private/x", []byte("secret"))
	takenIn := make(chan uint64, 1)
	var victim func(pkt any)
	if err := RunOn(f, func() error {
		f.Store().Insert(private, f.Sim().Now(), time.Millisecond)
		_, victim = f.AttachCustom(func(pkt any, _ int) {
			if _, isData := pkt.(*ndn.Data); isData {
				takenIn <- f.Stats().InterestsReceived
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const floodSize = 3 * burstCap
	floodQueued := make(chan struct{})
	exec.Schedule(0, func() {
		<-floodQueued
		// The flood's event is queued; the timer is armed after it, and
		// falls due before the executor goes on.
		victim(ndn.NewInterest(private.Name, 1))
		armed := exec.Now()
		for exec.Now() <= armed+time.Millisecond {
			time.Sleep(time.Millisecond)
		}
	})
	go far.Write(interestBurst("flood", floodSize)) //nolint:errcheck // the counters below tell
	waitForFace(t, flood, func(s Stats) bool { return s.Reads == 1 })
	close(floodQueued)

	select {
	case n := <-takenIn:
		if want := uint64(1 + burstCap); n != want {
			t.Errorf("the delayed serve went out after %d interests, want %d: the victim's and one slice of the flood", n, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the delayed serve never went out")
	}
	s := waitForFace(t, flood, func(s Stats) bool { return s.Received == floodSize })
	if s.Reads != 1 {
		t.Errorf("the flood took %d reads, want 1", s.Reads)
	}
}

// A face whose peer hangs up while a read longer than burstCap is still
// being run leaves the forwarder only after its last packet: no interest
// reaches the pipeline from a face the forwarder has already removed.
// The executor is held while the flood is read and the peer hangs up,
// so the face's removal is queued behind the flood's first slice.
func TestClosedFaceRunsItsQueueBeforeLeaving(t *testing.T) {
	f, exec := newRTForwarder(t, "R", false)
	near, far := net.Pipe()
	flood, err := Attach(f, near, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flood.Close() })

	// The flood's route leads to a face that notes, for each interest
	// forwarded to it, whether the flood's face was still registered.
	probe := ndn.MustParseName("/probe")
	var forwarded, afterRemoval atomic.Int64
	if err := RunOn(f, func() error {
		up, _ := f.AttachCustom(func(pkt any, _ int) {
			if _, isInterest := pkt.(*ndn.Interest); isInterest {
				forwarded.Add(1)
				if f.RegisterPrefix(probe, flood.ID()) != nil {
					afterRemoval.Add(1)
				}
			}
		})
		return f.RegisterPrefix(ndn.MustParseName("/flood"), up)
	}); err != nil {
		t.Fatal(err)
	}

	const floodSize = 3 * burstCap
	release := make(chan struct{})
	exec.Schedule(0, func() { <-release })
	go far.Write(interestBurst("flood", floodSize)) //nolint:errcheck // the counters below tell
	waitForFace(t, flood, func(s Stats) bool { return s.Reads == 1 })
	far.Close()
	<-flood.Done() // the reader has seen the hang-up and queued the face's removal
	close(release)

	waitForFace(t, flood, func(s Stats) bool { return s.Received == floodSize })
	if err := RunOn(f, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := forwarded.Load(); n != floodSize {
		t.Errorf("%d interests forwarded, want %d", n, floodSize)
	}
	if n := afterRemoval.Load(); n != 0 {
		t.Errorf("%d interests reached the pipeline after their face was removed", n)
	}
	if err := RunOn(f, func() error { return f.RegisterPrefix(probe, flood.ID()) }); err == nil {
		t.Error("the face is still registered after its queue ran")
	}
}
