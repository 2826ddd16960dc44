package experiments

import (
	"fmt"
	"strings"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/session"
	"ndnprivacy/internal/stats"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
)

// E11 — the Section V-A rationale experiment: interactive traffic over a
// lossy edge (the paper cites ≈4% Internet packet loss) recovers lost
// packets from the nearest router's cache when caching is on, and must
// travel to the far producer when it is off. This quantifies the
// incentive consumers have to request content without privacy.

// LossRecoveryConfig scales E11.
type LossRecoveryConfig struct {
	Seed int64
	// Packets in the interactive stream.
	Packets int
	// LossProb on the consumer edge link (paper: 0.04).
	LossProb float64
	// Bursty switches the edge to a Gilbert–Elliott loss process with
	// the same mean rate — real links lose packets in bursts, which
	// makes cache-assisted retransmission even more valuable.
	Bursty bool
	// Parallel bounds the worker pool; 0 or 1 is serial. Both rows are
	// deterministic functions of Seed, so the result is identical for
	// every value.
	Parallel int `json:"-"`
}

func (c *LossRecoveryConfig) setDefaults() {
	if c.Packets == 0 {
		c.Packets = 500
	}
	if c.LossProb == 0 {
		c.LossProb = 0.04
	}
}

// LossRecoveryRow is one configuration's outcome.
type LossRecoveryRow struct {
	Caching       bool
	Delivered     int
	Retries       int
	MeanRTTMs     float64
	RetryMeanMs   float64 // mean RTT of fetches that needed ≥1 retry
	ProducerLoad  uint64  // interests the producer answered
	RecoveredFast int     // retried fetches that completed under the cache-hit bound
}

// LossRecoveryResult holds both rows.
type LossRecoveryResult struct {
	Config LossRecoveryConfig
	Rows   []LossRecoveryRow
}

// RunLossRecovery streams packets U ← P across R with a lossy edge,
// once with router caching and once without.
func RunLossRecovery(cfg LossRecoveryConfig) (*LossRecoveryResult, error) {
	cfg.setDefaults()
	out := &LossRecoveryResult{Config: cfg}
	cells := make([]sweep.Cell[LossRecoveryRow], 0, 2)
	for _, caching := range []bool{true, false} {
		caching := caching
		cells = append(cells, sweep.Cell[LossRecoveryRow]{
			Labels: []string{"fig=loss", fmt.Sprintf("caching=%t", caching)},
			Run: func(_ int64, _ telemetry.Provider) (LossRecoveryRow, error) {
				// Deliberately ignores the derived seed: both cells run
				// on netsim.New(cfg.Seed) so the caching and non-caching
				// rows face the identical loss pattern — a paired
				// comparison, not two independent samples.
				row, err := runLossRecoveryOnce(cfg, caching)
				if err != nil {
					return LossRecoveryRow{}, err
				}
				return *row, nil
			},
		})
	}
	rows, err := sweep.Run(cells, sweep.Options{RootSeed: cfg.Seed, Parallel: cfg.Parallel})
	if err != nil {
		return nil, fmt.Errorf("loss recovery: %w", err)
	}
	out.Rows = rows
	return out, nil
}

func runLossRecoveryOnce(cfg LossRecoveryConfig, caching bool) (*LossRecoveryRow, error) {
	sim := netsim.New(cfg.Seed)
	var router *fwd.Forwarder
	var err error
	if caching {
		router, err = fwd.NewRouter(sim, "R", 0, nil)
	} else {
		router, err = fwd.New(fwd.Config{Name: "R", Sim: sim, ProcessingDelay: fwd.DefaultRouterProcessing})
	}
	if err != nil {
		return nil, err
	}
	uHost, err := fwd.NewBareHost(sim, "U")
	if err != nil {
		return nil, err
	}
	pHost, err := fwd.NewBareHost(sim, "P")
	if err != nil {
		return nil, err
	}
	edgeCfg := netsim.LinkConfig{
		Latency:  netsim.UniformJitter{Base: time.Millisecond, Jitter: 200 * time.Microsecond},
		LossProb: cfg.LossProb,
	}
	if cfg.Bursty {
		// Calibrate Gilbert–Elliott to the same mean rate: bad state
		// loses half its packets; stationary P(bad) = mean/0.5.
		pBadToGood := 0.2
		pBad := cfg.LossProb / 0.5
		ge, err := netsim.NewGilbertElliott(pBadToGood*pBad/(1-pBad), pBadToGood, 0, 0.5)
		if err != nil {
			return nil, err
		}
		edgeCfg.Loss = ge
	}
	if err := fwd.Chain(sim, []*fwd.Forwarder{uHost, router}, edgeCfg, "/call"); err != nil {
		return nil, err
	}
	if err := fwd.Chain(sim, []*fwd.Forwarder{router, pHost}, netsim.LinkConfig{
		Latency: netsim.LogNormalJitter{Base: 25 * time.Millisecond, MedianJitter: 2 * time.Millisecond, Sigma: 0.5},
	}, "/call"); err != nil {
		return nil, err
	}
	// Interactive traffic uses unpredictable names (Section V-A):
	// caching still aids loss recovery while probing is impossible. U
	// receives the frames P's endpoint sends under /call/0.
	const lifetime = 120 * time.Millisecond
	endpoint := func(host *fwd.Forwarder, local, remote string) (*session.Endpoint, error) {
		return session.NewEndpoint(session.Config{Host: host, LocalPrefix: ndn.MustParseName(local),
			RemotePrefix: ndn.MustParseName(remote), Secret: []byte("u-p-session"), FrameLifetime: lifetime, Retries: 5})
	}
	sender, err := endpoint(pHost, "/call/0", "/call/1")
	if err != nil {
		return nil, err
	}
	receiver, err := endpoint(uHost, "/call/1", "/call/0")
	if err != nil {
		return nil, err
	}

	row := &LossRecoveryRow{Caching: caching}
	var all, retried stats.Summary
	for seq := uint64(0); seq < uint64(cfg.Packets); seq++ {
		if err := sender.Send(seq, []byte("voice frame payload")); err != nil {
			return nil, err
		}
		var res session.FrameResult
		receiver.Receive(seq, func(r session.FrameResult) { res = r })
		sim.Run()
		if res.Lost {
			continue
		}
		row.Delivered++
		row.Retries += res.Retries
		totalLatency := float64(res.RTT+time.Duration(res.Retries)*lifetime) / float64(time.Millisecond)
		all.Add(totalLatency)
		if res.Retries > 0 {
			retried.Add(float64(res.RTT) / float64(time.Millisecond))
			if res.RTT < 10*time.Millisecond {
				row.RecoveredFast++
			}
		}
	}
	row.MeanRTTMs = all.Mean()
	row.RetryMeanMs = retried.Mean()
	row.ProducerLoad = sender.Served()
	return row, nil
}

// Render formats the E11 comparison.
func (r *LossRecoveryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Section V-A — loss recovery, %d packets, %.0f%% edge loss ===\n",
		r.Config.Packets, r.Config.LossProb*100)
	b.WriteString("caching  delivered  retries  mean latency  retry RTT  fast recoveries  producer load\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7t  %9d  %7d  %10.2fms  %7.2fms  %15d  %13d\n",
			row.Caching, row.Delivered, row.Retries, row.MeanRTTMs, row.RetryMeanMs,
			row.RecoveredFast, row.ProducerLoad)
	}
	b.WriteString("(with caching, retransmitted interests are answered by R: retry RTT collapses\n and the producer is shielded from retransmission load)\n")
	return b.String()
}

// E12 — the scope-field probe (Section III): a scope-2 interest reveals
// cache state without any timing measurement.

// ScopeProbeResult records the two probe outcomes.
type ScopeProbeResult struct {
	BeforePriming bool
	AfterPriming  bool
}

// RunScopeProbe publishes one object, scope-probes it cold, primes the
// cache through the honest user, and probes again.
func RunScopeProbe(seed int64) (*ScopeProbeResult, error) {
	sim := netsim.New(seed)
	router, err := fwd.NewRouter(sim, "R", 0, nil)
	if err != nil {
		return nil, err
	}
	uHost, err := fwd.NewBareHost(sim, "U")
	if err != nil {
		return nil, err
	}
	aHost, err := fwd.NewBareHost(sim, "A")
	if err != nil {
		return nil, err
	}
	pHost, err := fwd.NewBareHost(sim, "P")
	if err != nil {
		return nil, err
	}
	edge := netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)}
	for _, path := range [][]*fwd.Forwarder{{uHost, router}, {aHost, router}, {router, pHost}} {
		if err := fwd.Chain(sim, path, edge, "/p"); err != nil {
			return nil, err
		}
	}
	prefix := ndn.MustParseName("/p")
	producer, err := fwd.NewProducer(pHost, prefix, nil)
	if err != nil {
		return nil, err
	}
	d, err := ndn.NewData(ndn.MustParseName("/p/target"), []byte("t"))
	if err != nil {
		return nil, err
	}
	if err := producer.Publish(d); err != nil {
		return nil, err
	}

	user, err := fwd.NewConsumer(uHost)
	if err != nil {
		return nil, err
	}
	adv, err := fwd.NewConsumer(aHost)
	if err != nil {
		return nil, err
	}

	probe := func() bool {
		interest := ndn.NewInterest(ndn.MustParseName("/p/target"), 0).WithScope(ndn.ScopeNextHop)
		interest.Lifetime = 100 * time.Millisecond
		got := false
		adv.Fetch(interest, func(r fwd.FetchResult) { got = !r.TimedOut })
		sim.Run()
		return got
	}

	res := &ScopeProbeResult{}
	res.BeforePriming = probe()
	user.FetchName(ndn.MustParseName("/p/target"), func(fwd.FetchResult) {})
	sim.Run()
	res.AfterPriming = probe()
	return res, nil
}

// Render formats the E12 outcome.
func (r *ScopeProbeResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Section III — scope-2 probe (timing-free cache detection) ===\n")
	fmt.Fprintf(&b, "probe before user's request: content returned = %t (want false)\n", r.BeforePriming)
	fmt.Fprintf(&b, "probe after  user's request: content returned = %t (want true)\n", r.AfterPriming)
	b.WriteString("(any returned content for a scope-2 interest must come from R's cache)\n")
	return b.String()
}
