package netface_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"ndnprivacy/internal/daemon"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

// TestBorrowedPacketsRetainNothing runs hit, disguised, miss and tiered
// fetches through the daemon ndnd starts, over loopback, with every
// face overwriting each receive chunk as soon as it is spent. Packets
// are decoded borrowed from those chunks, so anything the router kept
// of one — a pending name, a cached payload — would change under it, and
// a fetch would time out or come back wrong.
func TestBorrowedPacketsRetainNothing(t *testing.T) {
	netface.PoisonChunks(t)
	type object struct {
		name    string
		payload []byte
	}
	var objects []object
	for i, kind := range []string{"pub", "private", "pub", "private", "pub", "private"} {
		objects = append(objects, object{
			name:    fmt.Sprintf("/p/%s/%d", kind, i),
			payload: bytes.Repeat([]byte{byte('a' + i)}, 300+100*i),
		})
	}

	producer := newHost(t, "producer")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listener, err := netface.Listen(producer, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() })
	prefix := ndn.MustParseName("/p")
	if err := netface.RunOn(producer, func() error {
		p, err := fwd.NewProducer(producer, prefix, nil)
		if err != nil {
			return err
		}
		for _, o := range objects {
			d, err := ndn.NewData(ndn.MustParseName(o.name), o.payload)
			if err != nil {
				return err
			}
			if err := p.Publish(d); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Two objects in RAM over a file tier, private ones disguised.
	d, err := daemon.Start(daemon.Config{
		Listen:   "127.0.0.1:0",
		Capacity: 2,
		Manager:  "delay",
		TierDir:  t.TempDir(),
		Routes:   []daemon.Route{{Prefix: prefix, Addr: listener.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	})

	consumerHost := newHost(t, "consumer")
	face, err := netface.Dial(consumerHost, "tcp", d.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { face.Close() })
	var consumer *fwd.Consumer
	if err := netface.RunOn(consumerHost, func() error {
		if err := consumerHost.RegisterPrefix(prefix, face.ID()); err != nil {
			return err
		}
		consumer, err = fwd.NewConsumer(consumerHost)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Every object misses once, then every one is fetched twice more:
	// from RAM, or from the file tier the RAM front demoted it to.
	for round := range 3 {
		for _, o := range objects {
			name := ndn.MustParseName(o.name)
			interest := ndn.NewInterest(name, 0)
			interest.Lifetime = 2 * time.Second
			results := make(chan fwd.FetchResult, 1)
			consumer.Fetch(interest, func(r fwd.FetchResult) { results <- r })
			res := <-results
			switch {
			case res.TimedOut:
				t.Fatalf("round %d: %s timed out", round, o.name)
			case !res.Data.Name.Equal(name):
				t.Fatalf("round %d: %s came back as %s", round, o.name, res.Data.Name)
			case !bytes.Equal(res.Data.Payload, o.payload):
				t.Fatalf("round %d: %s came back with payload %q…", round, o.name, res.Data.Payload[:8])
			}
		}
	}

	var stats fwd.Stats
	var diskHits uint64
	if err := netface.RunOn(d.Forwarder(), func() error {
		stats, diskHits = d.Forwarder().Stats(), d.Forwarder().Store().DiskHits()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(objects))
	if stats.RealMisses != n || stats.CacheHits+stats.DisguisedHits != 2*n || stats.DisguisedHits == 0 || diskHits == 0 {
		t.Errorf("want %d misses, %d hits with some disguised and some from disk: %+v, %d from disk", n, 2*n, stats, diskHits)
	}
}

// newHost builds a forwarder on its own real-time executor, closed with
// the test.
func newHost(t *testing.T, name string) *fwd.Forwarder {
	t.Helper()
	exec := rt.New(int64(len(name)))
	t.Cleanup(exec.Close)
	host, err := fwd.New(fwd.Config{Name: name, Sim: exec})
	if err != nil {
		t.Fatal(err)
	}
	return host
}
