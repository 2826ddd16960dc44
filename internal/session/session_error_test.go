package session

import (
	"testing"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
)

func TestSendRejectsEmptyPayload(t *testing.T) {
	sim := netsim.New(1)
	host, err := fwd.NewBareHost(sim, "h")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Host: host, LocalPrefix: ndn.MustParseName("/a"),
		RemotePrefix: ndn.MustParseName("/b"), Secret: []byte("k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(0, nil); err == nil {
		t.Error("empty frame accepted")
	}
}

func TestReceiveTotalLossReported(t *testing.T) {
	// No route to the peer: every attempt times out, Lost is reported,
	// and stats record nothing received.
	sim := netsim.New(2)
	host, err := fwd.NewBareHost(sim, "h")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Host: host, LocalPrefix: ndn.MustParseName("/a"),
		RemotePrefix: ndn.MustParseName("/b"), Secret: []byte("k"),
		FrameLifetime: 50 * time.Millisecond,
		Retries:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res FrameResult
	ep.Receive(0, func(r FrameResult) { res = r })
	sim.Run()
	if !res.Lost {
		t.Fatalf("unroutable frame not reported lost: %+v", res)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1", res.Retries)
	}
	sent, received, repaired := ep.Stats()
	if sent != 0 || received != 0 || repaired != 0 {
		t.Errorf("stats = %d/%d/%d, want zeros", sent, received, repaired)
	}
}

func TestPairPropagatesEndpointErrors(t *testing.T) {
	sim := netsim.New(3)
	host, err := fwd.NewBareHost(sim, "h")
	if err != nil {
		t.Fatal(err)
	}
	// Empty secret fails construction of the first endpoint.
	if _, _, err := pair(host, host, ndn.MustParseName("/a"), ndn.MustParseName("/b"), nil); err == nil {
		t.Error("pair with empty secret accepted")
	}
	// Nil second host fails the second endpoint.
	if _, _, err := pair(host, nil, ndn.MustParseName("/a"), ndn.MustParseName("/b"), []byte("k")); err == nil {
		t.Error("pair with nil second host accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sim := netsim.New(4)
	host, err := fwd.NewBareHost(sim, "h")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Host: host, LocalPrefix: ndn.MustParseName("/a"),
		RemotePrefix: ndn.MustParseName("/b"), Secret: []byte("k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.cfg.FrameLifetime != 150*time.Millisecond {
		t.Errorf("default FrameLifetime = %v", ep.cfg.FrameLifetime)
	}
	if ep.cfg.Retries != 2 {
		t.Errorf("default Retries = %d", ep.cfg.Retries)
	}
}
