package attack

import (
	"fmt"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
)

// Section I: "a combination of these two attacks can be used to learn
// whether two parties (Alice and Bob) have been recently, or still are,
// involved in a two-way interactive communication, e.g., voice or SSH."
// The adversary probes the shared router for recent sequence names in
// BOTH directions of a suspected conversation; simultaneous cache hits
// on both prefixes betray the session. The Section V-A unpredictable-
// name countermeasure makes the probed names unguessable and the attack
// collapses.

// ConversationConfig parameterizes the two-party detection experiment.
type ConversationConfig struct {
	Seed int64
	// Frames exchanged per trial conversation.
	Frames int
	// Trials per (world, protection) cell.
	Trials int
	// ProbeWindow is how many recent sequence numbers the adversary
	// guesses per direction.
	ProbeWindow int
	// Parallel bounds the worker pool running trials; 0 or 1 is serial.
	// Accuracies tally in trial order, so the result is identical for
	// every value.
	Parallel int `json:"-"`
}

func (c *ConversationConfig) setDefaults() {
	if c.Frames == 0 {
		c.Frames = 20
	}
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.ProbeWindow == 0 {
		c.ProbeWindow = 8
	}
}

// ConversationResult reports detection accuracy with and without the
// unpredictable-name protection.
type ConversationResult struct {
	Config ConversationConfig
	// PlainAccuracy is detection accuracy when the session uses
	// predictable sequence names.
	PlainAccuracy float64
	// ProtectedAccuracy is detection accuracy under Section V-A
	// unpredictable names.
	ProtectedAccuracy float64
}

// RunConversationDetection measures both accuracies. Each trial flips a
// fair coin for whether Alice and Bob converse; the adversary probes the
// router afterward and guesses. Every (protection, trial, world) point
// is one sweep cell with its own derived seed, run on up to cfg.Parallel
// workers and tallied in grid order.
func RunConversationDetection(cfg ConversationConfig) (*ConversationResult, error) {
	cfg.setDefaults()
	out := &ConversationResult{Config: cfg}
	type point struct {
		protected, conversing bool
	}
	var cells []sweep.Cell[bool]
	var grid []point
	for _, protected := range []bool{false, true} {
		for trial := 0; trial < cfg.Trials; trial++ {
			for _, conversing := range []bool{false, true} {
				protected, conversing := protected, conversing
				grid = append(grid, point{protected, conversing})
				cells = append(cells, sweep.Cell[bool]{
					Labels: []string{
						"fig=conversation",
						fmt.Sprintf("protected=%t", protected),
						fmt.Sprintf("trial=%d", trial),
						fmt.Sprintf("conversing=%t", conversing),
					},
					Run: func(seed int64, _ telemetry.Provider) (bool, error) {
						return conversationTrial(cfg, seed, protected, conversing)
					},
				})
			}
		}
	}
	detections, err := sweep.Run(cells, sweep.Options{RootSeed: cfg.Seed, Parallel: cfg.Parallel})
	if err != nil {
		return nil, fmt.Errorf("attack: conversation: %w", err)
	}
	var correct [2]int
	for i, detected := range detections {
		if detected == grid[i].conversing {
			if grid[i].protected {
				correct[1]++
			} else {
				correct[0]++
			}
		}
	}
	total := float64(2 * cfg.Trials)
	out.PlainAccuracy = float64(correct[0]) / total
	out.ProtectedAccuracy = float64(correct[1]) / total
	return out, nil
}

// conversationTrial builds alice—R—bob with the adversary on R, runs
// (or skips) a conversation, and returns the adversary's verdict. seed
// feeds the trial's simulator directly; RunConversationDetection derives
// it per grid point via sweep.DeriveSeed.
func conversationTrial(cfg ConversationConfig, seed int64, protected, conversing bool) (bool, error) {
	sim := netsim.New(seed)
	router, err := fwd.NewRouter(sim, "R", 0, nil)
	if err != nil {
		return false, err
	}
	aliceHost, err := fwd.NewBareHost(sim, "alice")
	if err != nil {
		return false, err
	}
	bobHost, err := fwd.NewBareHost(sim, "bob")
	if err != nil {
		return false, err
	}
	advHost, err := fwd.NewBareHost(sim, "adv")
	if err != nil {
		return false, err
	}
	edge := netsim.LinkConfig{
		Latency: netsim.UniformJitter{Base: 2 * time.Millisecond, Jitter: 300 * time.Microsecond},
	}
	aFace, raFace, _, err := fwd.Connect(sim, aliceHost, router, edge)
	if err != nil {
		return false, err
	}
	bFace, rbFace, _, err := fwd.Connect(sim, bobHost, router, edge)
	if err != nil {
		return false, err
	}
	advFace, _, _, err := fwd.Connect(sim, advHost, router, edge)
	if err != nil {
		return false, err
	}
	alicePrefix := ndn.MustParseName("/alice/ssh")
	bobPrefix := ndn.MustParseName("/bob/ssh")
	if err := router.RegisterPrefix(alicePrefix, raFace); err != nil {
		return false, err
	}
	if err := router.RegisterPrefix(bobPrefix, rbFace); err != nil {
		return false, err
	}
	if err := aliceHost.RegisterPrefix(bobPrefix, aFace); err != nil {
		return false, err
	}
	if err := bobHost.RegisterPrefix(alicePrefix, bFace); err != nil {
		return false, err
	}
	for _, prefix := range []ndn.Name{alicePrefix, bobPrefix} {
		if err := advHost.RegisterPrefix(prefix, advFace); err != nil {
			return false, err
		}
	}

	aliceProd, err := fwd.NewProducer(aliceHost, alicePrefix, nil)
	if err != nil {
		return false, err
	}
	bobProd, err := fwd.NewProducer(bobHost, bobPrefix, nil)
	if err != nil {
		return false, err
	}
	aliceCons, err := fwd.NewConsumer(aliceHost)
	if err != nil {
		return false, err
	}
	bobCons, err := fwd.NewConsumer(bobHost)
	if err != nil {
		return false, err
	}

	var secret *ndn.SharedSecret
	if protected {
		secret, err = ndn.NewSharedSecret([]byte("alice-bob-session"))
		if err != nil {
			return false, err
		}
	}
	frameName := func(prefix ndn.Name, seq uint64) ndn.Name {
		if protected {
			return secret.UnpredictableName(prefix, seq)
		}
		return ndn.SegmentName(prefix, seq)
	}

	if conversing {
		for seq := uint64(0); seq < uint64(cfg.Frames); seq++ {
			aFrame, err := ndn.NewData(frameName(alicePrefix, seq), []byte("a→b"))
			if err != nil {
				return false, err
			}
			if err := aliceProd.Publish(aFrame); err != nil {
				return false, err
			}
			bFrame, err := ndn.NewData(frameName(bobPrefix, seq), []byte("b→a"))
			if err != nil {
				return false, err
			}
			if err := bobProd.Publish(bFrame); err != nil {
				return false, err
			}
			// Each side pulls the other's frame through R.
			bobCons.FetchName(frameName(alicePrefix, seq), func(fwd.FetchResult) {})
			aliceCons.FetchName(frameName(bobPrefix, seq), func(fwd.FetchResult) {})
			sim.Run()
		}
	}

	// The adversary guesses recent sequence names in both directions
	// and declares "conversing" if any probe in EACH direction returns
	// content (scope-2: a return proves R cached it).
	adv, err := fwd.NewConsumer(advHost)
	if err != nil {
		return false, err
	}
	hitDirection := func(prefix ndn.Name) bool {
		for w := 0; w < cfg.ProbeWindow; w++ {
			seq := uint64(cfg.Frames - 1 - w)
			if cfg.Frames-1-w < 0 {
				break
			}
			interest := ndn.NewInterest(ndn.SegmentName(prefix, seq), 0).WithScope(ndn.ScopeNextHop)
			interest.Lifetime = 50 * time.Millisecond
			got := false
			adv.Fetch(interest, func(r fwd.FetchResult) { got = !r.TimedOut })
			sim.Run()
			if got {
				return true
			}
		}
		return false
	}
	return hitDirection(alicePrefix) && hitDirection(bobPrefix), nil
}

// RenderConversation formats the result.
func (r *ConversationResult) Render() string {
	return fmt.Sprintf(
		"=== Section I — two-party conversation detection ===\n"+
			"predictable names:   adversary accuracy %.3f\n"+
			"unpredictable names: adversary accuracy %.3f\n"+
			"(0.5 = guessing; the mutual countermeasure removes the probe surface)\n",
		r.PlainAccuracy, r.ProtectedAccuracy)
}
