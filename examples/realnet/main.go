// Real network demo: the same forwarder, cache and privacy code that
// powers the simulations, running over actual TCP connections on
// loopback — ndnd's router (daemon.Start) with the always-delay policy, a
// producer, and a consumer, wired exactly like the paper's Figure 1 but
// with real sockets and the wall clock.
package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"ndnprivacy/internal/daemon"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "realnet: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	prefix := ndn.MustParseName("/demo")

	// --- Producer: listens on TCP, publishes private content. ---
	producerExec := rt.New(2)
	defer producerExec.Close()
	producerHost, err := fwd.New(fwd.Config{Name: "producer-host", Sim: producerExec})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	producerListener, err := netface.Listen(producerHost, ln, nil)
	if err != nil {
		return err
	}
	defer producerListener.Close()
	if err := netface.RunOn(producerHost, func() error {
		producer, err := fwd.NewProducer(producerHost, prefix, nil)
		if err != nil {
			return err
		}
		article, err := ndn.NewData(
			ndn.MustParseName("/demo/private/report"),
			[]byte("sensitive quarterly numbers"),
		)
		if err != nil {
			return err
		}
		article.Private = true
		return producer.Publish(article)
	}); err != nil {
		return err
	}

	// --- Router: ndnd's cache + always-delay privacy, routing /demo to
	// the producer and listening on TCP. ---
	router, err := daemon.Start(daemon.Config{
		Listen:   "127.0.0.1:0",
		Capacity: 1024,
		Manager:  "delay",
		Routes:   []daemon.Route{{Prefix: prefix, Addr: producerListener.Addr().String()}},
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := router.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "realnet: router close: %v\n", err)
		}
	}()
	addr := router.Addr().String()
	fmt.Printf("router listening on %s (always-delay countermeasure)\n", addr)

	// --- Consumer: dials the router and fetches twice. ---
	consumerExec := rt.New(3)
	defer consumerExec.Close()
	consumerHost, err := fwd.New(fwd.Config{Name: "consumer-host", Sim: consumerExec})
	if err != nil {
		return err
	}
	consumerFace, err := netface.Dial(consumerHost, "tcp", addr, nil)
	if err != nil {
		return err
	}
	var consumer *fwd.Consumer
	if err := netface.RunOn(consumerHost, func() error {
		if err := consumerHost.RegisterPrefix(prefix, consumerFace.ID()); err != nil {
			return err
		}
		var err error
		consumer, err = fwd.NewConsumer(consumerHost)
		return err
	}); err != nil {
		return err
	}

	fetch := func(label string) error {
		interest := ndn.NewInterest(ndn.MustParseName("/demo/private/report"), 0)
		interest.Lifetime = 2 * time.Second
		resCh := make(chan fwd.FetchResult, 1)
		consumer.Fetch(interest, func(r fwd.FetchResult) { resCh <- r })
		select {
		case res := <-resCh:
			if res.TimedOut {
				return fmt.Errorf("%s fetch timed out", label)
			}
			fmt.Printf("%-12s %q in %v\n", label, res.Data.Payload, res.RTT.Round(10*time.Microsecond))
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("%s fetch stuck", label)
		}
	}

	if err := fetch("first fetch"); err != nil {
		return err
	}
	if err := fetch("second fetch"); err != nil {
		return err
	}
	fmt.Println("\nthe second fetch was served from the router's cache, but — because the")
	fmt.Println("content is private and the router replays γ_C — it was not observably")
	fmt.Println("faster than a miss: a probing adversary on this router learns nothing.")
	return nil
}
