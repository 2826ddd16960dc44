package fwd

import (
	"fmt"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
)

// starTopology: n consumer hosts and one producer host around a caching
// router hub.
func starTopology(t *testing.T, seed int64, consumers int) (*netsim.Simulator, []*Consumer, *Producer, *Forwarder) {
	t.Helper()
	sim := netsim.New(seed)
	hub, err := NewRouter(sim, "hub", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]*Forwarder, 0, consumers+1)
	for i := 0; i < consumers; i++ {
		host, err := NewBareHost(sim, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, host)
	}
	pHost, err := NewBareHost(sim, "P")
	if err != nil {
		t.Fatal(err)
	}
	leaves = append(leaves, pHost)

	cfg := netsim.LinkConfig{
		Latency: netsim.UniformJitter{Base: time.Millisecond, Jitter: 200 * time.Microsecond},
	}
	hubFaces := star(t, sim, hub, leaves, cfg)
	// Route the prefix from the hub toward the producer leaf (last).
	if err := hub.RegisterPrefix(ndn.MustParseName("/p"), hubFaces[len(hubFaces)-1]); err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(pHost, ndn.MustParseName("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*Consumer, consumers)
	for i := 0; i < consumers; i++ {
		c, err := NewConsumer(leaves[i])
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	return sim, cs, producer, hub
}

// star connects every leaf to hub and routes /p from each leaf toward
// the hub. It returns the hub-side face of each leaf, in order.
func star(t *testing.T, sim *netsim.Simulator, hub *Forwarder, leaves []*Forwarder, cfg netsim.LinkConfig) []table.FaceID {
	t.Helper()
	hubFaces := make([]table.FaceID, len(leaves))
	for i, leaf := range leaves {
		leafFace, hubFace, _, err := Connect(sim, leaf, hub, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := leaf.RegisterPrefix(ndn.MustParseName("/p"), leafFace); err != nil {
			t.Fatal(err)
		}
		hubFaces[i] = hubFace
	}
	return hubFaces
}

func TestStarFlashCrowdAggregation(t *testing.T) {
	// A flash crowd: 30 consumers request the same fresh object
	// simultaneously. The PIT collapses everything into ONE upstream
	// interest; the producer answers once; everyone gets the content.
	const consumers = 30
	sim, cs, producer, hub := starTopology(t, 7, consumers)
	d, err := ndn.NewData(ndn.MustParseName("/p/viral"), []byte("hot content"))
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Publish(d); err != nil {
		t.Fatal(err)
	}

	delivered := 0
	for _, c := range cs {
		c.FetchName(ndn.MustParseName("/p/viral"), func(r FetchResult) {
			if !r.TimedOut {
				delivered++
			}
		})
	}
	sim.Run()

	if delivered != consumers {
		t.Errorf("delivered %d/%d", delivered, consumers)
	}
	if served := producer.Served(); served != 1 {
		t.Errorf("producer served %d interests, want 1 (full collapse)", served)
	}
	stats := hub.Stats()
	if stats.Aggregated != consumers-1 {
		t.Errorf("Aggregated = %d, want %d", stats.Aggregated, consumers-1)
	}
	if stats.Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", stats.Forwarded)
	}
}

func TestStarManyObjectsManyConsumers(t *testing.T) {
	// Sequential mixed workload: every consumer fetches every object;
	// exactly one producer fetch per object, all the rest cache hits.
	const (
		consumers = 8
		objects   = 12
	)
	sim, cs, producer, hub := starTopology(t, 11, consumers)
	for i := 0; i < objects; i++ {
		d, err := ndn.NewData(ndn.MustParseName(fmt.Sprintf("/p/o/%d", i)), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := producer.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	for i := 0; i < objects; i++ {
		for _, c := range cs {
			c.FetchName(ndn.MustParseName(fmt.Sprintf("/p/o/%d", i)), func(r FetchResult) {
				if !r.TimedOut {
					delivered++
				}
			})
			sim.Run()
		}
	}
	if delivered != consumers*objects {
		t.Errorf("delivered %d/%d", delivered, consumers*objects)
	}
	if served := producer.Served(); served != objects {
		t.Errorf("producer served %d, want %d", served, objects)
	}
	if hits := hub.Stats().CacheHits; hits != uint64(objects*(consumers-1)) {
		t.Errorf("CacheHits = %d, want %d", hits, objects*(consumers-1))
	}
}
