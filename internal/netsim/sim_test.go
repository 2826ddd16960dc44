package netsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
	if s.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", s.Steps())
	}
}

func TestScheduleFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("same-timestamp events reordered: %v", order)
		}
	}
}

func TestScheduleNested(t *testing.T) {
	s := New(1)
	var times []time.Duration
	s.Schedule(time.Millisecond, func() {
		times = append(times, s.Now())
		s.Schedule(2*time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 3*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(10*time.Millisecond, func() {
		s.Schedule(-5*time.Millisecond, func() {
			ran = true
			if s.Now() != 10*time.Millisecond {
				t.Errorf("negative delay ran at %v", s.Now())
			}
		})
	})
	s.Run()
	if !ran {
		t.Error("negative-delay event never ran")
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunFor(5 * time.Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", s.Pending())
	}
	s.RunFor(20 * time.Second)
	if count != 10 || s.Now() != 20*time.Second {
		t.Errorf("after second RunFor: count=%d now=%v", count, s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []time.Duration {
		s := New(42)
		link, err := NewLink(s, LinkConfig{
			Latency:  LogNormalJitter{Base: time.Millisecond, MedianJitter: time.Millisecond, Sigma: 0.5},
			LossProb: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var arrivals []time.Duration
		link.Port(1).SetHandler(func(any) { arrivals = append(arrivals, s.Now()) })
		for i := 0; i < 100; i++ {
			link.Port(0).Send(i, 100)
		}
		s.Run()
		return arrivals
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFixedLatency(t *testing.T) {
	m := Fixed(3 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	if m.Sample(rng) != 3*time.Millisecond || m.Mean() != 3*time.Millisecond {
		t.Error("Fixed latency wrong")
	}
}

func TestUniformJitterRange(t *testing.T) {
	m := UniformJitter{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := m.Sample(rng)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("sample %v outside [10ms, 15ms)", d)
		}
	}
	if m.Mean() != 12500*time.Microsecond {
		t.Errorf("Mean = %v", m.Mean())
	}
	zero := UniformJitter{Base: time.Millisecond}
	if zero.Sample(rng) != time.Millisecond {
		t.Error("zero jitter should be base")
	}
}

func TestLogNormalJitterStats(t *testing.T) {
	m := LogNormalJitter{Base: 5 * time.Millisecond, MedianJitter: 2 * time.Millisecond, Sigma: 0.5}
	rng := rand.New(rand.NewSource(7))
	var samples []float64
	for i := 0; i < 20000; i++ {
		d := m.Sample(rng)
		if d < 5*time.Millisecond {
			t.Fatalf("sample %v below base", d)
		}
		samples = append(samples, float64(d-5*time.Millisecond))
	}
	// Median of the jitter component should be near 2ms.
	mean := 0.0
	for _, x := range samples {
		mean += x
	}
	mean /= float64(len(samples))
	wantMean := float64(2*time.Millisecond) * math.Exp(0.125)
	if math.Abs(mean-wantMean)/wantMean > 0.05 {
		t.Errorf("sample mean %v, want ≈ %v", time.Duration(mean), time.Duration(wantMean))
	}
	if got := m.Mean(); math.Abs(float64(got)-(float64(5*time.Millisecond)+wantMean)) > float64(50*time.Microsecond) {
		t.Errorf("Mean() = %v", got)
	}
	degenerate := LogNormalJitter{Base: time.Millisecond}
	if degenerate.Sample(rng) != time.Millisecond || degenerate.Mean() != time.Millisecond {
		t.Error("zero-jitter log-normal should collapse to base")
	}
}

func TestValidate(t *testing.T) {
	bad := []LatencyModel{
		Fixed(-time.Millisecond),
		UniformJitter{Base: -1},
		LogNormalJitter{Sigma: -0.1},
	}
	for _, m := range bad {
		if err := Validate(m); err == nil {
			t.Errorf("Validate(%#v) passed, want error", m)
		}
	}
	good := []LatencyModel{
		Fixed(0),
		UniformJitter{Base: time.Millisecond, Jitter: time.Millisecond},
		LogNormalJitter{Base: time.Millisecond, MedianJitter: time.Millisecond, Sigma: 0.3},
	}
	for _, m := range good {
		if err := Validate(m); err != nil {
			t.Errorf("Validate(%#v): %v", m, err)
		}
	}
}

func TestNewLinkValidation(t *testing.T) {
	s := New(1)
	cases := []struct {
		name string
		sim  *Simulator
		cfg  LinkConfig
	}{
		{"nil sim", nil, LinkConfig{Latency: Fixed(0)}},
		{"nil latency", s, LinkConfig{}},
		{"bad latency", s, LinkConfig{Latency: Fixed(-1)}},
		{"negative bandwidth", s, LinkConfig{Latency: Fixed(0), Bandwidth: -1}},
		{"loss 1.0", s, LinkConfig{Latency: Fixed(0), LossProb: 1}},
		{"loss negative", s, LinkConfig{Latency: Fixed(0), LossProb: -0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewLink(tc.sim, tc.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestLinkDelivery(t *testing.T) {
	s := New(1)
	link, err := NewLink(s, LinkConfig{Latency: Fixed(4 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var got any
	var at time.Duration
	link.Port(1).SetHandler(func(pkt any) { got, at = pkt, s.Now() })
	link.Port(0).Send("hello", 0)
	s.Run()
	if got != "hello" || at != 4*time.Millisecond {
		t.Errorf("delivery = %v at %v", got, at)
	}
	if link.Delivered() != 1 {
		t.Errorf("Delivered = %d", link.Delivered())
	}
}

func TestLinkBidirectional(t *testing.T) {
	s := New(1)
	link, _ := NewLink(s, LinkConfig{Latency: Fixed(time.Millisecond)})
	var a2b, b2a bool
	link.Port(1).SetHandler(func(any) { a2b = true })
	link.Port(0).SetHandler(func(any) { b2a = true })
	link.Port(0).Send(1, 0)
	link.Port(1).Send(2, 0)
	s.Run()
	if !a2b || !b2a {
		t.Errorf("bidirectional delivery failed: %t %t", a2b, b2a)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	s := New(1)
	// 1000 bytes at 1 MB/s = 1ms serialization on top of 1ms latency.
	link, _ := NewLink(s, LinkConfig{Latency: Fixed(time.Millisecond), Bandwidth: 1000000})
	var at time.Duration
	link.Port(1).SetHandler(func(any) { at = s.Now() })
	link.Port(0).Send("x", 1000)
	s.Run()
	if at != 2*time.Millisecond {
		t.Errorf("arrival = %v, want 2ms", at)
	}
}

func TestLinkLoss(t *testing.T) {
	s := New(3)
	link, _ := NewLink(s, LinkConfig{Latency: Fixed(0), LossProb: 0.5})
	delivered := 0
	link.Port(1).SetHandler(func(any) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		link.Port(0).Send(i, 0)
	}
	s.Run()
	rate := float64(delivered) / n
	if rate < 0.45 || rate > 0.55 {
		t.Errorf("delivery rate = %g, want ≈ 0.5", rate)
	}
	if link.Dropped()+link.Delivered() != n {
		t.Errorf("dropped %d + delivered %d != %d", link.Dropped(), link.Delivered(), n)
	}
}

func TestLinkNilHandlerDoesNotPanic(t *testing.T) {
	s := New(1)
	link, _ := NewLink(s, LinkConfig{Latency: Fixed(0)})
	link.Port(0).Send("into the void", 0)
	s.Run() // must not panic
	if link.Delivered() != 1 {
		t.Error("packet not counted")
	}
}

func TestPortPeer(t *testing.T) {
	s := New(1)
	link, _ := NewLink(s, LinkConfig{Latency: Fixed(0)})
	if link.Port(0).Peer() != link.Port(1) || link.Port(1).Peer() != link.Port(0) {
		t.Error("Peer wiring wrong")
	}
	if link.Config().Latency == nil {
		t.Error("Config lost latency")
	}
}

// Property: events always execute in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(1)
		var last time.Duration
		ok := true
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEventQueueMatchesStableSort is the heap's differential test: a
// seeded random schedule — many equal timestamps, negative delays,
// events scheduled from inside callbacks, both the fn and the call/arg
// form — must execute in exactly the order of a stable sort of the
// scheduled events by deadline, i.e. by (at, seq).
func TestEventQueueMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		type record struct {
			id int
			at time.Duration
		}
		var scheduled []record // in scheduling order, so index order is seq order
		var executed []int
		budget := 400
		var schedule func()
		run := func(id int) {
			if want := scheduled[id].at; s.Now() != want {
				t.Fatalf("seed %d: event %d ran at %v, scheduled for %v", seed, id, s.Now(), want)
			}
			executed = append(executed, id)
			for n := rng.Intn(3); n > 0 && budget > 0; n-- {
				schedule()
			}
		}
		runArg := func(arg any) { run(*arg.(*int)) }
		schedule = func() {
			budget--
			// Four distinct deadlines per generation, one of them negative.
			delay := time.Duration(rng.Intn(4)-1) * time.Millisecond
			at := s.Now()
			if delay > 0 {
				at += delay
			}
			id := len(scheduled)
			scheduled = append(scheduled, record{id: id, at: at})
			switch rng.Intn(3) {
			case 0:
				s.Schedule(delay, func() { run(id) })
			case 1:
				s.ScheduleTagged(delay, EventTimer, func() { run(id) })
			default:
				s.ScheduleCall(delay, EventLink, runArg, &id)
			}
		}
		for i := 0; i < 64; i++ {
			schedule()
		}
		s.Run()

		want := append([]record(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(executed) != len(want) {
			t.Fatalf("seed %d: executed %d of %d events", seed, len(executed), len(want))
		}
		for i := range want {
			if executed[i] != want[i].id {
				t.Fatalf("seed %d: position %d ran event %d, stable sort by (at, seq) says %d", seed, i, executed[i], want[i].id)
			}
		}
		if s.Steps() != uint64(len(want)) {
			t.Fatalf("seed %d: Steps = %d, want %d", seed, s.Steps(), len(want))
		}
	}
}

// TestPoppedSlotsHoldNoReference: the queue stores events by value, so
// a popped event's slot must be zeroed — otherwise the backing array
// would pin an executed closure, or a delivered packet, until that slot
// happened to be overwritten.
func TestPoppedSlotsHoldNoReference(t *testing.T) {
	s := New(1)
	pkt := new([1 << 10]byte)
	for i := 0; i < 37; i++ {
		s.ScheduleCall(time.Duration(i%5)*time.Millisecond, EventLink, func(any) {}, pkt)
		s.Schedule(time.Duration(i%3)*time.Millisecond, func() { _ = pkt })
	}
	check := func(when string) {
		t.Helper()
		events := s.queue.events
		for i, ev := range events[len(events):cap(events)] {
			if ev.Call != nil || ev.Arg != nil {
				t.Fatalf("%s: vacated slot %d still references its event (%d queued)", when, len(events)+i, len(events))
			}
		}
	}
	for i := 0; i < 20; i++ {
		s.step()
	}
	check("mid-run")
	s.Run()
	check("drained")
	if s.Pending() != 0 {
		t.Fatalf("%d events left", s.Pending())
	}
}

// TestScheduleStepZeroAlloc pins the queue's steady-state cost: once
// the backing array has grown, scheduling and executing an event
// allocates nothing, in either form.
func TestScheduleStepZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	call := func(any) {}
	pkt := new(int)
	if n := testing.AllocsPerRun(200, func() {
		s.ScheduleTagged(time.Millisecond, EventForward, fn)
		s.ScheduleCall(time.Millisecond, EventLink, call, pkt)
		s.Schedule(2*time.Millisecond, fn)
		s.Run()
	}); n != 0 {
		t.Errorf("schedule + step: %.0f allocs/run, want 0", n)
	}
}

// TestLinkSendZeroAlloc: a link hop schedules the peer port's bound
// delivery handler with the packet as argument — no closure per packet.
func TestLinkSendZeroAlloc(t *testing.T) {
	s := New(1)
	link, err := NewLink(s, LinkConfig{Latency: Fixed(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	link.Port(1).SetHandler(func(any) { delivered++ })
	pkt := new(int)
	if n := testing.AllocsPerRun(200, func() {
		link.Port(0).Send(pkt, 100)
		s.Run()
	}); n != 0 {
		t.Errorf("Port.Send + delivery: %.0f allocs/run, want 0", n)
	}
	if delivered == 0 || link.Delivered() != uint64(delivered) {
		t.Fatalf("handler saw %d deliveries, link counted %d", delivered, link.Delivered())
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	if _, err := NewGilbertElliott(-0.1, 0.5, 0, 0.5); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewGilbertElliott(0.1, 1.5, 0, 0.5); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestGilbertElliottMeanLoss(t *testing.T) {
	ge, err := NewGilbertElliott(0.05, 0.25, 0.001, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Stationary P(bad) = 0.05/0.3 = 1/6.
	want := (5.0/6.0)*0.001 + (1.0/6.0)*0.3
	if got := ge.MeanLoss(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanLoss = %g, want %g", got, want)
	}
	frozen := &GilbertElliott{LossGood: 0.01}
	if frozen.MeanLoss() != 0.01 {
		t.Error("degenerate chain mean wrong")
	}
}

func TestGilbertElliottEmpiricalRate(t *testing.T) {
	ge, err := NewGilbertElliott(0.02, 0.2, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 300000
	drops := 0
	for i := 0; i < n; i++ {
		if ge.Drop(rng) {
			drops++
		}
	}
	got := float64(drops) / n
	want := ge.MeanLoss()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical loss %g, stationary %g", got, want)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Bursty loss means consecutive drops cluster: the probability that
	// a drop follows a drop must exceed the marginal loss rate.
	ge, err := NewGilbertElliott(0.01, 0.1, 0, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	const n = 300000
	prevDrop := false
	drops, dropAfterDrop, dropPairsBase := 0, 0, 0
	for i := 0; i < n; i++ {
		d := ge.Drop(rng)
		if d {
			drops++
		}
		if prevDrop {
			dropPairsBase++
			if d {
				dropAfterDrop++
			}
		}
		prevDrop = d
	}
	marginal := float64(drops) / n
	conditional := float64(dropAfterDrop) / float64(dropPairsBase)
	if conditional < 2*marginal {
		t.Errorf("no burstiness: P(drop|drop)=%g vs marginal %g", conditional, marginal)
	}
}

func TestLinkWithGilbertElliott(t *testing.T) {
	s := New(9)
	ge, err := NewGilbertElliott(0.05, 0.3, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(s, LinkConfig{Latency: Fixed(0), Loss: ge})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	link.Port(1).SetHandler(func(any) { delivered++ })
	const n = 20000
	for i := 0; i < n; i++ {
		link.Port(0).Send(i, 0)
	}
	s.Run()
	rate := 1 - float64(delivered)/n
	want := ge.MeanLoss()
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("link loss rate %g, want ≈ %g", rate, want)
	}
}
