package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// simHooks are the simulator's public instrumentation seams; the traced
// run attaches them one at a time to price each.
type simHooks struct {
	profiler *netsim.Profiler
	spans    *span.Tracer
	registry *telemetry.Registry
}

// simSystem is the chain U — R1 — R2 — P in virtual time, with one
// consumer on U and one producer on P. sim_hit cycles over objects R1
// holds; sim_miss cycles over a ring far larger than both stores.
type simSystem struct {
	miss  bool
	seed  int64
	hooks simHooks

	sim      *netsim.Simulator
	r1       *fwd.Forwarder
	producer *fwd.Producer
	consumer *fwd.Consumer
	names    []ndn.Name
	cursor   int

	// handler state: the fetch in progress and whether it verified.
	handler  func(fwd.FetchResult)
	expect   int32
	verified bool
	scratch  []byte

	// counters at the end of set-up, for verify.
	ops0, hits0, served0 uint64
	ops, failed          uint64
	steps0               uint64
}

func newSimSystem(miss bool, seed int64, hooks simHooks) *simSystem {
	return &simSystem{miss: miss, seed: seed, hooks: hooks, scratch: make([]byte, payloadBytes)}
}

func (s *simSystem) objects() int {
	if s.miss {
		return simMissRing
	}
	return simHitObjects
}

func (s *simSystem) eventsPerOp() uint64 {
	if s.miss {
		return simEventsMiss
	}
	return simEventsHit
}

func (s *simSystem) setUp() error {
	s.sim = netsim.New(s.seed)
	// Hooks go on before the topology: nodes resolve them when built.
	if s.hooks.registry != nil {
		s.sim.SetTelemetry(s.hooks.registry, nil)
	}
	if s.hooks.spans != nil {
		s.sim.SetSpans(s.hooks.spans)
	}
	if s.hooks.profiler != nil {
		s.sim.SetProfiler(s.hooks.profiler)
	}
	u, err := fwd.NewBareHost(s.sim, "U")
	if err != nil {
		return err
	}
	s.r1, err = fwd.NewRouter(s.sim, "R1", simCSCapacity, nil)
	if err != nil {
		return err
	}
	r2, err := fwd.NewRouter(s.sim, "R2", simCSCapacity, nil)
	if err != nil {
		return err
	}
	p, err := fwd.NewBareHost(s.sim, "P")
	if err != nil {
		return err
	}
	link := netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)}
	if err := fwd.Chain(s.sim, []*fwd.Forwarder{u, s.r1, r2, p}, link, producerPrefix.String()); err != nil {
		return err
	}
	if s.producer, err = fwd.NewProducer(p, producerPrefix, nil); err != nil {
		return err
	}
	if s.consumer, err = fwd.NewConsumer(u); err != nil {
		return err
	}
	s.handler = s.onResult

	base := producerPrefix.AppendString("o")
	s.names = make([]ndn.Name, s.objects())
	for i := range s.names {
		s.names[i] = base.AppendString(strconv.Itoa(i))
		fillPayload(s.scratch, s.seed, int32(i))
		d, err := ndn.NewData(s.names[i], s.scratch)
		if err != nil {
			return err
		}
		if err := s.producer.Publish(d); err != nil {
			return err
		}
	}

	// Steady state: sim_hit fetches every object once (filling R1 and
	// R2) and then once more from R1; sim_miss runs the ring until both
	// stores have turned over three times.
	warm := 2 * simHitObjects
	if s.miss {
		warm = simMissWarmup
	}
	if failed := s.fetch(warm); failed > 0 {
		return fmt.Errorf("%d of %d warm-up fetches failed", failed, warm)
	}
	s.ops0, s.failed = s.ops, 0
	s.hits0 = s.r1.Stats().CacheHits
	s.served0 = s.producer.Served()
	s.steps0 = s.sim.Steps()
	return nil
}

func (s *simSystem) tearDown() {
	*s = simSystem{miss: s.miss, seed: s.seed, hooks: s.hooks, scratch: s.scratch}
}

// onResult verifies one fetch: the Data must carry the requested name
// and the payload the producer published under it.
func (s *simSystem) onResult(res fwd.FetchResult) {
	if res.TimedOut || res.Data == nil || !res.Data.Name.Equal(s.names[s.expect]) {
		return
	}
	fillPayload(s.scratch, s.seed, s.expect)
	s.verified = bytes.Equal(res.Data.Payload, s.scratch)
}

// fetchOne issues the next fetch in the cycle, runs the simulator until
// idle and reports whether the answer verified.
func (s *simSystem) fetchOne() bool {
	s.expect = int32(s.cursor)
	s.cursor++
	if s.cursor == len(s.names) {
		s.cursor = 0
	}
	s.verified = false
	s.consumer.FetchName(s.names[s.expect], s.handler)
	s.sim.Run()
	s.ops++
	if !s.verified {
		s.failed++
	}
	return s.verified
}

// fetch runs n fetches and returns how many failed.
func (s *simSystem) fetch(n int) (failed int) {
	for i := 0; i < n; i++ {
		if !s.fetchOne() {
			failed++
		}
	}
	return failed
}

func (s *simSystem) segment(d time.Duration) (attempted, failed int, err error) {
	deadline := time.Now().Add(d)
	for {
		failed += s.fetch(simBatch)
		attempted += simBatch
		if !time.Now().Before(deadline) {
			return attempted, failed, nil
		}
	}
}

func (s *simSystem) cpu() (time.Duration, error) { return pidCPU(0) }
func (s *simSystem) peakRSSkB() (uint64, error)  { return pidPeakRSSkB(0) }

// verify checks the exact simulated counters: they depend only on the
// workload, never on the host, so any drift is a behaviour change.
func (s *simSystem) verify() error {
	ops := s.ops - s.ops0
	if ops == 0 {
		return fmt.Errorf("no fetches measured")
	}
	if s.failed > 0 {
		return fmt.Errorf("%d of %d fetches timed out or returned the wrong name or payload", s.failed, ops)
	}
	if got, want := s.sim.Steps()-s.steps0, ops*s.eventsPerOp(); got != want {
		return fmt.Errorf("%d simulator events for %d fetches (%.3f per fetch), want exactly %d per fetch",
			got, ops, float64(got)/float64(ops), s.eventsPerOp())
	}
	hits := s.r1.Stats().CacheHits - s.hits0
	served := s.producer.Served() - s.served0
	if s.miss {
		if served != ops || hits != 0 {
			return fmt.Errorf("producer served %d and R1 hit %d of %d fetches, want all served and none hit", served, hits, ops)
		}
		return nil
	}
	if hits != ops || served != 0 || s.producer.Served() != simHitObjects {
		return fmt.Errorf("R1 hit %d of %d fetches, producer served %d since set-up and %d in all, want all hit, 0 and %d",
			hits, ops, served, s.producer.Served(), simHitObjects)
	}
	return nil
}
