// Interactive traffic (Section V-A): a VoIP-like session between two
// parties protected with unpredictable names derived from a shared
// secret. Router caching still repairs packet loss — retransmitted
// interests are answered by the first-hop router — while an adversary
// who does not know the secret cannot probe the session's content, and
// prefix probes return nothing.
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
		fmt.Fprintf(os.Stderr, "interactive: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	sim := netsim.New(2026)

	router, err := fwd.NewRouter(sim, "R", 4096, nil)
	if err != nil {
		return err
	}
	aliceHost, err := fwd.NewBareHost(sim, "alice")
	if err != nil {
		return err
	}
	advHost, err := fwd.NewBareHost(sim, "adv")
	if err != nil {
		return err
	}
	bobHost, err := fwd.NewBareHost(sim, "bob")
	if err != nil {
		return err
	}

	// Alice's edge link loses 4% of packets (the paper's Internet loss
	// figure); Bob is far away.
	lossyEdge := netsim.LinkConfig{
		Latency:  netsim.UniformJitter{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond},
		LossProb: 0.04,
	}
	cleanEdge := netsim.LinkConfig{
		Latency: netsim.UniformJitter{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond},
	}
	farPath := netsim.LinkConfig{
		Latency: netsim.LogNormalJitter{Base: 35 * time.Millisecond, MedianJitter: 2 * time.Millisecond, Sigma: 0.5},
	}

	aliceFace, _, _, err := fwd.Connect(sim, aliceHost, router, lossyEdge)
	if err != nil {
		return err
	}
	advFace, _, _, err := fwd.Connect(sim, advHost, router, cleanEdge)
	if err != nil {
		return err
	}
	routerFace, _, _, err := fwd.Connect(sim, router, bobHost, farPath)
	if err != nil {
		return err
	}
	prefix := ndn.MustParseName("/bob/voip")
	if err := aliceHost.RegisterPrefix(prefix, aliceFace); err != nil {
		return err
	}
	if err := advHost.RegisterPrefix(prefix, advFace); err != nil {
		return err
	}
	if err := router.RegisterPrefix(prefix, routerFace); err != nil {
		return err
	}

	bob, err := fwd.NewProducer(bobHost, prefix, nil)
	if err != nil {
		return err
	}

	// Alice and Bob share a session secret; every frame name carries an
	// HMAC-derived unpredictable component.
	secret, err := ndn.NewSharedSecret([]byte("alice-bob-call-2026"))
	if err != nil {
		return err
	}

	alice, err := fwd.NewConsumer(aliceHost)
	if err != nil {
		return err
	}

	const frames = 120
	delivered, retried := 0, 0
	var worstRTT, totalRTT time.Duration
	for seq := uint64(0); seq < frames; seq++ {
		frameName := secret.UnpredictableName(prefix.AppendString("frame"), seq)
		frame, err := ndn.NewData(frameName, []byte("20ms of audio"))
		if err != nil {
			return err
		}
		if err := bob.Publish(frame); err != nil {
			return err
		}
		interest := ndn.NewInterest(frameName, 0)
		interest.Lifetime = 150 * time.Millisecond
		var res fwd.FetchResult
		var used int
		alice.FetchReliable(interest, 3, func(r fwd.FetchResult, u int) { res, used = r, u })
		sim.Run()
		if res.TimedOut {
			continue
		}
		delivered++
		retried += used
		totalRTT += res.RTT
		if res.RTT > worstRTT {
			worstRTT = res.RTT
		}
	}
	fmt.Printf("call: %d/%d frames delivered, %d retransmissions repaired from R's cache\n",
		delivered, frames, retried)
	fmt.Printf("mean frame RTT %.2fms, worst %.2fms\n",
		float64(totalRTT)/float64(delivered)/float64(time.Millisecond),
		float64(worstRTT)/float64(time.Millisecond))

	// The adversary tries both attacks: guessing a frame name, and
	// probing the session prefix (footnote 5 forbids serving
	// rand-suffixed content to prefix interests).
	adv, err := fwd.NewConsumer(advHost)
	if err != nil {
		return err
	}
	probeFails := 0
	probes := []ndn.Name{
		prefix.AppendString("frame", "0"),                       // guessed sequence name
		prefix.AppendString("frame"),                            // session prefix
		secret.UnpredictableName(prefix.AppendString("spy"), 0), // wrong base name
	}
	for _, name := range probes {
		interest := ndn.NewInterest(name, 0)
		interest.Lifetime = 200 * time.Millisecond
		timedOut := false
		adv.Fetch(interest, func(r fwd.FetchResult) { timedOut = r.TimedOut })
		sim.Run()
		if timedOut {
			probeFails++
		}
		fmt.Printf("adversary probe %-42s → returned content: %t\n", name, !timedOut)
	}
	if probeFails == len(probes) {
		fmt.Println("all probes failed: without the shared secret the cache reveals nothing")
	}
	return nil
}
