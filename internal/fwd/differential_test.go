package fwd

import (
	"reflect"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/rt"
)

// scriptOutcome is everything the differential script observes about
// one router.
type scriptOutcome struct {
	Stats                              Stats
	Hits, Misses, Insertions, StoreLen uint64
	Consumer1, Consumer2, Producer     []string
}

// runScript drives one router — always-delay manager, three in-memory
// AttachCustom faces — through a fixed scenario on exec: a miss, an
// aggregated interest, a plain hit, a disguised (delayed) hit and an
// unroutable interest, with nonces drawn from the executor's seeded
// RNG. Steps are a whole unit apart, so the wall clock orders them as
// the virtual clock does; steps that share an instant are scheduled in
// order from one callback. done receives the outcome from inside the
// executor.
func runScript(t *testing.T, exec Executor, unit time.Duration, done func(scriptOutcome)) {
	t.Helper()
	strategy, err := core.NewConstantDelay(2 * unit)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := core.NewDelayManager(strategy)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.NewStore(16, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(Config{Name: "R", Sim: exec, Store: store, Manager: manager})
	if err != nil {
		t.Fatal(err)
	}

	var out scriptOutcome
	record := func(log *[]string) func(pkt any, _ int) {
		return func(pkt any, _ int) {
			switch p := pkt.(type) {
			case *ndn.Interest:
				*log = append(*log, "I "+p.Name.String())
			case *ndn.Data:
				*log = append(*log, "D "+p.Name.String())
			}
		}
	}
	exec.Schedule(0, func() {
		_, consumer1 := router.AttachCustom(record(&out.Consumer1))
		_, consumer2 := router.AttachCustom(record(&out.Consumer2))
		logUp := record(&out.Producer)
		var answer func(pkt any)
		upstream, answer := router.AttachCustom(func(pkt any, size int) {
			logUp(pkt, size)
			if interest, isInterest := pkt.(*ndn.Interest); isInterest {
				data, err := ndn.NewData(interest.Name, []byte("payload"))
				if err != nil {
					t.Error(err)
					return
				}
				exec.Schedule(unit, func() { answer(data) })
			}
		})
		if err := router.RegisterPrefix(ndn.MustParseName("/p"), upstream); err != nil {
			t.Error(err)
		}

		ask := func(at time.Duration, inject func(pkt any), uri string, privacy ndn.Privacy) {
			interest := ndn.NewInterest(ndn.MustParseName(uri), exec.Rand().Uint64())
			interest.Privacy = privacy
			exec.Schedule(at, func() { inject(interest) })
		}
		ask(0, consumer1, "/p/a", ndn.PrivacyUnmarked)         // miss
		ask(0, consumer2, "/p/a", ndn.PrivacyUnmarked)         // aggregated onto it
		ask(0, consumer1, "/p/b", ndn.PrivacyRequested)        // miss, cached private
		ask(3*unit, consumer2, "/p/a", ndn.PrivacyUnmarked)    // hit, served at once
		ask(3*unit, consumer1, "/p/b", ndn.PrivacyRequested)   // hit, served 2 units late
		ask(4*unit, consumer1, "/p/a", ndn.PrivacyUnmarked)    // hit, overtakes the delayed /p/b
		ask(6*unit, consumer2, "/p/c", ndn.PrivacyUnmarked)    // miss
		ask(6*unit, consumer2, "/q/none", ndn.PrivacyUnmarked) // no route
		// Snapshot well clear of the last answer (≈ 7 units).
		exec.Schedule(12*unit, func() {
			out.Stats = router.Stats()
			out.Hits, out.Misses = store.Hits(), store.Misses()
			out.Insertions, out.StoreLen = store.Insertions(), uint64(store.Len())
			done(out)
		})
	})
}

// TestSimulatorAndDaemonExecutorAgree: the same script through the same
// forwarder code gives the same counters and the same packets in the
// same order on every face, whether the queue is popped on the virtual
// clock or on the wall clock.
func TestSimulatorAndDaemonExecutorAgree(t *testing.T) {
	const seed = 7
	var want scriptOutcome
	sim := netsim.New(seed)
	runScript(t, sim, time.Millisecond, func(out scriptOutcome) { want = out })
	sim.Run()
	if want.Stats.CacheHits != 2 || want.Stats.DisguisedHits != 1 || want.Stats.Aggregated != 1 ||
		want.Stats.RealMisses != 5 || want.Stats.Forwarded != 3 || want.Stats.NoRouteDropped != 1 {
		t.Fatalf("script did not exercise every class on the simulator: %+v", want.Stats)
	}
	if overtaken := []string{"D /p/a", "D /p/b", "D /p/a", "D /p/b"}; !reflect.DeepEqual(want.Consumer1, overtaken) {
		t.Fatalf("consumer 1 saw %v on the simulator, want %v", want.Consumer1, overtaken)
	}

	exec := rt.New(seed)
	defer exec.Close()
	got := make(chan scriptOutcome, 1)
	runScript(t, exec, 20*time.Millisecond, func(out scriptOutcome) { got <- out })
	select {
	case out := <-got:
		if !reflect.DeepEqual(out, want) {
			t.Errorf("wall clock and virtual clock disagree:\n rt:  %+v\n sim: %+v", out, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("script never finished on rt.Executor")
	}
}
