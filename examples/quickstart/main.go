// Quickstart: build a four-node NDN network (consumer — router —
// producer plus a second consumer), publish signed content, and watch
// router-side caching at work: the second consumer's fetch is served
// from the router's Content Store instead of the producer.
package main

import (
	"fmt"
	"os"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	sim := netsim.New(42)

	// Topology: alice ── R ── producer, bob ── R.
	router, err := fwd.NewRouter(sim, "R", 1024, nil)
	if err != nil {
		return err
	}
	aliceHost, err := fwd.NewBareHost(sim, "alice")
	if err != nil {
		return err
	}
	bobHost, err := fwd.NewBareHost(sim, "bob")
	if err != nil {
		return err
	}
	producerHost, err := fwd.NewBareHost(sim, "producer")
	if err != nil {
		return err
	}

	edge := netsim.LinkConfig{
		Latency:   netsim.UniformJitter{Base: time.Millisecond, Jitter: 200 * time.Microsecond},
		Bandwidth: 12_500_000,
	}
	backbone := netsim.LinkConfig{
		Latency: netsim.LogNormalJitter{Base: 15 * time.Millisecond, MedianJitter: time.Millisecond, Sigma: 0.5},
	}

	aliceFace, _, _, err := fwd.Connect(sim, aliceHost, router, edge)
	if err != nil {
		return err
	}
	bobFace, _, _, err := fwd.Connect(sim, bobHost, router, edge)
	if err != nil {
		return err
	}
	routerFace, _, _, err := fwd.Connect(sim, router, producerHost, backbone)
	if err != nil {
		return err
	}

	prefix := ndn.MustParseName("/cnn")
	if err := aliceHost.RegisterPrefix(prefix, aliceFace); err != nil {
		return err
	}
	if err := bobHost.RegisterPrefix(prefix, bobFace); err != nil {
		return err
	}
	if err := router.RegisterPrefix(prefix, routerFace); err != nil {
		return err
	}

	// The producer signs everything it publishes.
	signer, err := ndn.NewSigner("/cnn", []byte("cnn-signing-key"))
	if err != nil {
		return err
	}
	producer, err := fwd.NewProducer(producerHost, prefix, signer)
	if err != nil {
		return err
	}
	article, err := ndn.NewData(
		ndn.MustParseName("/cnn/news/2013may20"),
		[]byte("NDN caches content in the network itself."),
	)
	if err != nil {
		return err
	}
	if err := producer.Publish(article); err != nil {
		return err
	}

	alice, err := fwd.NewConsumer(aliceHost)
	if err != nil {
		return err
	}
	bob, err := fwd.NewConsumer(bobHost)
	if err != nil {
		return err
	}

	fetch := func(who string, c *fwd.Consumer) error {
		var res fwd.FetchResult
		c.FetchName(ndn.MustParseName("/cnn/news/2013may20"), func(r fwd.FetchResult) { res = r })
		sim.Run()
		if res.TimedOut {
			return fmt.Errorf("%s: fetch timed out", who)
		}
		if err := signer.Verify(res.Data); err != nil {
			return fmt.Errorf("%s: signature: %w", who, err)
		}
		fmt.Printf("%-6s fetched %s in %7.3fms (%dB, signed by %s)\n",
			who, res.Data.Name, float64(res.RTT)/float64(time.Millisecond),
			len(res.Data.Payload), res.Data.Producer)
		return nil
	}

	fmt.Println("First fetch travels to the producer; the second is a router cache hit:")
	if err := fetch("alice", alice); err != nil {
		return err
	}
	if err := fetch("bob", bob); err != nil {
		return err
	}
	stats := router.Stats()
	fmt.Printf("\nrouter: %d interests, %d cache hit(s), %d forwarded upstream\n",
		stats.InterestsReceived, stats.CacheHits, stats.Forwarded)
	fmt.Printf("producer answered %d interest(s) — the cache absorbed the rest\n", producer.Served())
	return nil
}
