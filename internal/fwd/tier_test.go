package fwd

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/telemetry"
)

// runHubWorkload drives a seeded workload through a three-consumer star
// whose hub runs Random-Cache over the given store, and returns the hub's
// counters with the run's NDJSON trace. The mix covers every outcome of
// the interest pipeline: real misses, revealed hits, misses generated for
// private content, and interests aggregated behind a pending one.
//
// It also returns what the hub's tables held: the pending names half-way
// through each round's fetch and the cached names (both tiers) after it.
// With probe set, the hub's ProbeWire classifies every fetched interest's
// wire at the fetch and at that half-way look, and each buffer is
// overwritten with 0xA5 the moment the probe returns.
func runHubWorkload(t *testing.T, store *cache.Store, probe bool) (Stats, []byte, []string) {
	t.Helper()
	const seed = 11
	sim := netsim.New(seed)
	var trace bytes.Buffer
	writer := telemetry.NewTraceWriter(&trace)
	sim.SetTelemetry(nil, writer)

	dist, err := core.NewUniformK(4)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := core.NewRandomCache(dist, sim.Rand())
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewStoreRouter(sim, "hub", store, manager)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]*Forwarder, 4)
	for i := range leaves {
		if leaves[i], err = NewBareHost(sim, fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.LinkConfig{Latency: netsim.UniformJitter{Base: time.Millisecond, Jitter: 200 * time.Microsecond}}
	hubFaces, err := Star(sim, hub, leaves, link, "/p")
	if err != nil {
		t.Fatal(err)
	}
	pHost := leaves[len(leaves)-1]
	if err := hub.RegisterPrefix(ndn.MustParseName("/p"), hubFaces[len(hubFaces)-1]); err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(pHost, ndn.MustParseName("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const objects = 16
	names := make([]ndn.Name, objects)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/p/o%d", i))
		publish(t, producer, names[i].Key(), i%2 == 0)
	}
	consumers := make([]*Consumer, len(leaves)-1)
	for i := range consumers {
		if consumers[i], err = NewConsumer(leaves[i]); err != nil {
			t.Fatal(err)
		}
	}

	probeWire := func(name ndn.Name) {
		if !probe {
			return
		}
		wire := ndn.EncodeInterest(ndn.NewInterest(name, 1))
		hub.ProbeWire(wire, sim.Now())
		for i := range wire {
			wire[i] = 0xA5
		}
	}
	var tables []string
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 200; round++ {
		name := names[rng.Intn(objects)]
		probeWire(name)
		consumers[rng.Intn(len(consumers))].FetchName(name, func(FetchResult) {})
		if rng.Intn(4) == 0 {
			// A second consumer asks for the same name in the same
			// instant: behind a miss the hub aggregates it.
			consumers[rng.Intn(len(consumers))].FetchName(name, func(FetchResult) {})
		}
		// Half-way: the interest has reached the hub, a miss's Data has
		// not come back.
		sim.Schedule(1500*time.Microsecond, func() {
			probeWire(name)
			var pending []string
			store.Table().ForEachPIT(func(e *pcct.Entry) { pending = append(pending, e.Name().String()) })
			tables = append(tables, fmt.Sprintf("round %d pending %q", round, pending))
		})
		sim.Run()
		tables = append(tables, fmt.Sprintf("round %d cached %v", round, store.Names()))
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	return hub.Stats(), trace.Bytes(), tables
}

// A second tier that is never reached must be invisible: with a RAM
// front holding the whole working set, the forwarder's counters and its
// event trace are byte-identical to a flat store's.
func TestUnreachedSecondTierMatchesFlatStore(t *testing.T) {
	flat := cache.MustNewStore(64, cache.NewLRU())
	flatStats, flatTrace, _ := runHubWorkload(t, flat, false)

	disk := tiered.NewDiskModel(tiered.DiskModelConfig{})
	store, err := cache.NewTieredStore(64, cache.NewLRU(), disk)
	if err != nil {
		t.Fatal(err)
	}
	tierStats, tierTrace, _ := runHubWorkload(t, store, false)
	if disk.Writes() != 0 || store.DiskHits() != 0 {
		t.Fatalf("second tier was reached: %d writes, %d hits", disk.Writes(), store.DiskHits())
	}

	if flatStats != tierStats {
		t.Errorf("stats diverge:\nflat   %+v\ntiered %+v", flatStats, tierStats)
	}
	if flat.Hits() != store.Hits() || flat.Misses() != store.Misses() || flat.Insertions() != store.Insertions() {
		t.Errorf("store counters diverge: flat %d/%d/%d, tiered %d/%d/%d (hits/misses/insertions)",
			flat.Hits(), flat.Misses(), flat.Insertions(), store.Hits(), store.Misses(), store.Insertions())
	}
	if !bytes.Equal(flatTrace, tierTrace) {
		t.Errorf("traces diverge (%d vs %d bytes)", len(flatTrace), len(tierTrace))
	}
	// The workload must have exercised every leg it claims to.
	s := flatStats
	if s.CacheHits == 0 || s.RealMisses == 0 || s.GeneratedMisses == 0 || s.Aggregated == 0 {
		t.Errorf("workload missed a pipeline outcome: %+v", s)
	}
	if len(flatTrace) == 0 {
		t.Error("empty trace")
	}
}

// ProbeWire borrows the interest's name from the caller's buffer, and
// nothing may keep it. Probing every interest of the hub workload and
// poisoning each buffer as soon as the probe returns must leave the run
// exactly as it is without probes: the same counters, the same pending
// names at every half-way look and the same cached names after every
// round — on a flat store, and on a tiered one whose second tier holds
// demoted objects (a file tier: its reads cost nothing modeled, so a
// probe moves no device clock).
func TestProbeWireRetainsNoBorrowedBytes(t *testing.T) {
	for _, kind := range []struct {
		name  string
		build func(t *testing.T) *cache.Store
	}{
		{"flat", func(t *testing.T) *cache.Store { return cache.MustNewStore(64, cache.NewLRU()) }},
		{"tiered", func(t *testing.T) *cache.Store {
			tier, err := tiered.OpenFileTier(tiered.FileTierConfig{Path: filepath.Join(t.TempDir(), "tier.log")})
			if err != nil {
				t.Fatal(err)
			}
			store, err := cache.NewTieredStore(4, cache.NewLRU(), tier)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			return store
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			plainStats, _, plainTables := runHubWorkload(t, kind.build(t), false)
			store := kind.build(t)
			probedStats, _, probedTables := runHubWorkload(t, store, true)
			if plainStats != probedStats {
				t.Errorf("stats diverge:\nplain  %+v\nprobed %+v", plainStats, probedStats)
			}
			if len(plainTables) != len(probedTables) {
				t.Fatalf("%d table snapshots, %d with probes", len(plainTables), len(probedTables))
			}
			for i := range plainTables {
				if plainTables[i] != probedTables[i] {
					t.Fatalf("tables diverge:\nplain  %s\nprobed %s", plainTables[i], probedTables[i])
				}
			}
			if kind.name == "tiered" && store.SecondLen() == 0 {
				t.Error("nothing was demoted to the second tier")
			}
			s := probedStats
			if s.CacheHits == 0 || s.RealMisses == 0 || s.GeneratedMisses == 0 || s.Aggregated == 0 {
				t.Errorf("workload missed a pipeline outcome: %+v", s)
			}
		})
	}
}
