package session

import (
	"fmt"
	"testing"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
)

// conversationTopology wires alice — R — bob with routable prefixes in
// both directions, returning the simulator, hosts and the shared router.
func conversationTopology(t *testing.T, seed int64, edgeLoss float64) (*netsim.Simulator, *fwd.Forwarder, *fwd.Forwarder, *fwd.Forwarder) {
	t.Helper()
	sim := netsim.New(seed)
	router, err := fwd.NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := fwd.NewBareHost(sim, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := fwd.NewBareHost(sim, "bob")
	if err != nil {
		t.Fatal(err)
	}
	aFace, raFace, _, err := fwd.Connect(sim, alice, router, netsim.LinkConfig{
		Latency:  netsim.UniformJitter{Base: 2 * time.Millisecond, Jitter: 300 * time.Microsecond},
		LossProb: edgeLoss,
	})
	if err != nil {
		t.Fatal(err)
	}
	bFace, rbFace, _, err := fwd.Connect(sim, bob, router, netsim.LinkConfig{
		Latency: netsim.UniformJitter{Base: 2 * time.Millisecond, Jitter: 300 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// alice produces /alice, bob produces /bob; each routes toward the
	// other through R.
	if err := alice.RegisterPrefix(ndn.MustParseName("/bob"), aFace); err != nil {
		t.Fatal(err)
	}
	if err := bob.RegisterPrefix(ndn.MustParseName("/alice"), bFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(ndn.MustParseName("/alice"), raFace); err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterPrefix(ndn.MustParseName("/bob"), rbFace); err != nil {
		t.Fatal(err)
	}
	return sim, alice, bob, router
}

func TestNewEndpointValidation(t *testing.T) {
	sim := netsim.New(1)
	host, err := fwd.NewBareHost(sim, "h")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Host:         host,
		LocalPrefix:  ndn.MustParseName("/a"),
		RemotePrefix: ndn.MustParseName("/b"),
		Secret:       []byte("s"),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil host", func(c *Config) { c.Host = nil }},
		{"empty local", func(c *Config) { c.LocalPrefix = ndn.Name{} }},
		{"empty remote", func(c *Config) { c.RemotePrefix = ndn.Name{} }},
		{"empty secret", func(c *Config) { c.Secret = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewEndpoint(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNameDerivationSymmetry(t *testing.T) {
	sim := netsim.New(1)
	hostA, err := fwd.NewBareHost(sim, "a")
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := fwd.NewBareHost(sim, "b")
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := Pair(hostA, hostB, ndn.MustParseName("/alice"), ndn.MustParseName("/bob"), []byte("shared"))
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 10; seq++ {
		if !a.LocalName(seq).Equal(b.RemoteName(seq)) {
			t.Fatalf("seq %d: alice's local name != bob's remote name", seq)
		}
		if !b.LocalName(seq).Equal(a.RemoteName(seq)) {
			t.Fatalf("seq %d: bob's local name != alice's remote name", seq)
		}
		if a.LocalName(seq).Equal(b.LocalName(seq)) {
			t.Fatalf("seq %d: both directions derived the same name", seq)
		}
	}
}

func TestTwoWayConversation(t *testing.T) {
	sim, aliceHost, bobHost, _ := conversationTopology(t, 3, 0)
	alice, bob, err := Pair(aliceHost, bobHost, ndn.MustParseName("/alice"), ndn.MustParseName("/bob"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}

	const frames = 20
	gotA, gotB := 0, 0
	for seq := uint64(0); seq < frames; seq++ {
		if err := alice.Send(seq, []byte(fmt.Sprintf("alice frame %d", seq))); err != nil {
			t.Fatal(err)
		}
		if err := bob.Send(seq, []byte(fmt.Sprintf("bob frame %d", seq))); err != nil {
			t.Fatal(err)
		}
		alice.Receive(seq, func(r FrameResult) {
			if !r.Lost && string(r.Payload) == fmt.Sprintf("bob frame %d", r.Seq) {
				gotA++
			}
		})
		bob.Receive(seq, func(r FrameResult) {
			if !r.Lost && string(r.Payload) == fmt.Sprintf("alice frame %d", r.Seq) {
				gotB++
			}
		})
		sim.Run()
	}
	if gotA != frames || gotB != frames {
		t.Errorf("delivered %d/%d and %d/%d frames", gotA, frames, gotB, frames)
	}
	sentA, recvA, _ := alice.Stats()
	if sentA != frames || recvA != frames {
		t.Errorf("alice stats: sent %d recv %d", sentA, recvA)
	}
	// No loss and each frame fetched once: each producer answered one
	// interest per frame.
	if alice.Served() != frames || bob.Served() != frames {
		t.Errorf("served %d and %d interests, want %d each", alice.Served(), bob.Served(), frames)
	}
}

func TestLossRepairFromRouterCache(t *testing.T) {
	// 10% loss on alice's edge: frames still arrive, repaired by
	// retransmission against R's cache.
	sim, aliceHost, bobHost, _ := conversationTopology(t, 7, 0.10)
	alice, bob, err := Pair(aliceHost, bobHost, ndn.MustParseName("/alice"), ndn.MustParseName("/bob"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 150
	lost := 0
	for seq := uint64(0); seq < frames; seq++ {
		if err := bob.Send(seq, []byte("voice")); err != nil {
			t.Fatal(err)
		}
		alice.Receive(seq, func(r FrameResult) {
			if r.Lost {
				lost++
			}
		})
		sim.Run()
	}
	_, received, repaired := alice.Stats()
	if received < frames*9/10 {
		t.Errorf("received only %d/%d frames", received, frames)
	}
	if repaired == 0 {
		t.Error("no frames repaired despite 10% loss")
	}
	t.Logf("received %d, repaired %d, lost %d", received, repaired, lost)
}

func TestAdversaryCannotProbeSession(t *testing.T) {
	sim, aliceHost, bobHost, router := conversationTopology(t, 11, 0)
	alice, bob, err := Pair(aliceHost, bobHost, ndn.MustParseName("/alice"), ndn.MustParseName("/bob"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	// Attach the adversary to R as another consumer.
	advHost, err := fwd.NewBareHost(sim, "adv")
	if err != nil {
		t.Fatal(err)
	}
	advFace, _, _, err := fwd.Connect(sim, advHost, router, netsim.LinkConfig{
		Latency: netsim.Fixed(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := advHost.RegisterPrefix(ndn.MustParseName("/alice"), advFace); err != nil {
		t.Fatal(err)
	}
	if err := advHost.RegisterPrefix(ndn.MustParseName("/bob"), advFace); err != nil {
		t.Fatal(err)
	}
	adv, err := fwd.NewConsumer(advHost)
	if err != nil {
		t.Fatal(err)
	}

	// Run some conversation so R's cache holds session frames.
	for seq := uint64(0); seq < 10; seq++ {
		if err := alice.Send(seq, []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := bob.Send(seq, []byte("b")); err != nil {
			t.Fatal(err)
		}
		alice.Receive(seq, func(FrameResult) {})
		bob.Receive(seq, func(FrameResult) {})
		sim.Run()
	}

	// The adversary probes both prefixes and guessed sequence names.
	probes := []ndn.Name{
		ndn.MustParseName("/alice"),
		ndn.MustParseName("/bob"),
		ndn.MustParseName("/alice").AppendString("0"),
		ndn.MustParseName("/bob").AppendString("5"),
	}
	for _, name := range probes {
		interest := ndn.NewInterest(name, 0)
		interest.Lifetime = 100 * time.Millisecond
		got := false
		adv.Fetch(interest, func(r fwd.FetchResult) { got = !r.TimedOut })
		sim.Run()
		if got {
			t.Errorf("probe %s retrieved session content", name)
		}
	}
}

func TestStaleFramesAgeOut(t *testing.T) {
	sim, aliceHost, bobHost, router := conversationTopology(t, 13, 0)
	_, bob, err := Pair(aliceHost, bobHost, ndn.MustParseName("/alice"), ndn.MustParseName("/bob"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Send(0, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	// Pull it through R so it caches.
	aliceEP, err := NewEndpoint(Config{
		Host: aliceHost, LocalPrefix: ndn.MustParseName("/alice"),
		RemotePrefix: ndn.MustParseName("/bob"), Secret: []byte("k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	aliceEP.Receive(0, func(FrameResult) {})
	sim.Run()

	name := aliceEP.RemoteName(0)
	if _, found := router.Store().Exact(name, sim.Now()); !found {
		t.Fatal("frame not cached at R")
	}
	// Interactive frames carry a 2s freshness bound: after 3 virtual
	// seconds the cached copy is stale.
	sim.RunFor(sim.Now() + 3*time.Second)
	if _, found := router.Store().Exact(name, sim.Now()); found {
		t.Error("stale interactive frame still served from cache")
	}
}
