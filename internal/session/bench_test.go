package session

import (
	"testing"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
)

// BenchmarkSessionFrameExchange measures one full send+receive frame
// cycle through the two-host-one-router topology.
func BenchmarkSessionFrameExchange(b *testing.B) {
	sim := netsim.New(1)
	router, err := fwd.NewRouter(sim, "R", 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	alice, err := fwd.NewBareHost(sim, "alice")
	if err != nil {
		b.Fatal(err)
	}
	bob, err := fwd.NewBareHost(sim, "bob")
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)}
	aFace, raFace, _, err := fwd.Connect(sim, alice, router, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bFace, rbFace, _, err := fwd.Connect(sim, bob, router, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := alice.RegisterPrefix(ndn.MustParseName("/bob"), aFace); err != nil {
		b.Fatal(err)
	}
	if err := bob.RegisterPrefix(ndn.MustParseName("/alice"), bFace); err != nil {
		b.Fatal(err)
	}
	if err := router.RegisterPrefix(ndn.MustParseName("/alice"), raFace); err != nil {
		b.Fatal(err)
	}
	if err := router.RegisterPrefix(ndn.MustParseName("/bob"), rbFace); err != nil {
		b.Fatal(err)
	}
	aliceEP, bobEP, err := pair(alice, bob, ndn.MustParseName("/alice"), ndn.MustParseName("/bob"), []byte("k"))
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 160) // one 20ms voice frame at 64 kb/s
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		seq := uint64(n)
		if err := bobEP.Send(seq, payload); err != nil {
			b.Fatal(err)
		}
		got := false
		aliceEP.Receive(seq, func(r FrameResult) { got = !r.Lost })
		sim.Run()
		if !got {
			b.Fatal("frame lost on lossless link")
		}
	}
}

// BenchmarkUnpredictableNameDerivation isolates the per-frame HMAC cost
// the Section V-A scheme adds to each packet.
func BenchmarkUnpredictableNameDerivation(b *testing.B) {
	sim := netsim.New(1)
	host, err := fwd.NewBareHost(sim, "h")
	if err != nil {
		b.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Host:         host,
		LocalPrefix:  ndn.MustParseName("/a"),
		RemotePrefix: ndn.MustParseName("/b"),
		Secret:       []byte("session-secret"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ep.LocalName(uint64(n))
	}
}
