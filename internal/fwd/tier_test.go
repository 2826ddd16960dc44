package fwd

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry"
)

// runHubWorkload drives a seeded workload through a three-consumer star
// whose hub runs Random-Cache over the given store, and returns the hub's
// counters with the run's NDJSON trace. The mix covers every outcome of
// the interest pipeline: real misses, revealed hits, misses generated for
// private content, and interests aggregated behind a pending one.
func runHubWorkload(t *testing.T, store *cache.Store) (Stats, []byte) {
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

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 200; round++ {
		name := names[rng.Intn(objects)]
		consumers[rng.Intn(len(consumers))].FetchName(name, func(FetchResult) {})
		if rng.Intn(4) == 0 {
			// A second consumer asks for the same name in the same
			// instant: behind a miss the hub aggregates it.
			consumers[rng.Intn(len(consumers))].FetchName(name, func(FetchResult) {})
		}
		sim.Run()
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	return hub.Stats(), trace.Bytes()
}

// A second tier that is never reached must be invisible: with a RAM
// front holding the whole working set, the forwarder's counters and its
// event trace are byte-identical to a flat store's.
func TestUnreachedSecondTierMatchesFlatStore(t *testing.T) {
	flat := cache.MustNewStore(64, cache.NewLRU())
	flatStats, flatTrace := runHubWorkload(t, flat)

	disk := tiered.NewDiskModel(tiered.DiskModelConfig{})
	store, err := cache.NewTieredStore(64, cache.NewLRU(), disk)
	if err != nil {
		t.Fatal(err)
	}
	tierStats, tierTrace := runHubWorkload(t, store)
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
