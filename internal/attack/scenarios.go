package attack

import (
	"fmt"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/stats"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// ScenarioConfig parameterizes one Figure 3 experiment.
type ScenarioConfig struct {
	// Seed makes the whole experiment reproducible. Each run derives
	// its own seed from it (sweep.DeriveSeed over the scenario label
	// and run index).
	Seed int64
	// Objects is the number of content objects published per run (the
	// paper used 1,000).
	Objects int
	// Runs is the number of repetitions, each starting with an empty
	// router cache (the paper used 50).
	Runs int
	// Parallel bounds the worker pool executing the runs; 0 or 1 means
	// serial. Results and telemetry merge in run order, so the output
	// is byte-identical for every value.
	Parallel int
	// Manager builds the router's cache manager for each run; nil means
	// no countermeasure (the attack baseline). It may be called from
	// concurrent runs and must not share mutable state between them.
	Manager func(sim *netsim.Simulator) core.CacheManager
	// MarkPrivate marks published content private, so countermeasure
	// runs exercise the privacy path.
	MarkPrivate bool
	// Metrics and Trace, when non-nil, attach telemetry to every run.
	// Each run observes a private registry and trace buffer which the
	// sweep engine merges in run order, so the exposition and event
	// stream stay deterministic even under Parallel > 1. The engine
	// stamps a run_start trace record per run.
	Metrics *telemetry.Registry `json:"-"`
	Trace   telemetry.Sink      `json:"-"`
	// Spans, when non-nil, collects every run's interest-lifecycle spans
	// (see internal/telemetry/span), merged in run order like Trace.
	Spans *span.Tracer `json:"-"`
	// Observe, when non-nil, is invoked with each run's freshly built
	// simulator before any topology exists — an escape hatch for
	// attaching custom telemetry (Simulator.SetTelemetry) directly.
	// Anything shared it writes to is only deterministic under serial
	// execution; prefer Metrics/Trace, which merge in run order.
	Observe func(run int, sim *netsim.Simulator)
}

func (c *ScenarioConfig) setDefaults() {
	if c.Objects == 0 {
		c.Objects = 100
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
}

// Result holds one scenario's labeled delay samples and the adversary's
// single-probe distinguishing power.
type Result struct {
	// Label names the scenario ("lan", "wan", ...).
	Label string
	// Hit and Miss are RTT samples in milliseconds, ground-truth
	// labeled: Hit samples were served from the probed cache, Miss
	// samples were not.
	Hit, Miss []float64
	// Accuracy is the best single-threshold classifier accuracy — the
	// "probability of determining whether C is retrieved from R's
	// cache" the paper reports per experiment.
	Accuracy float64
	// Threshold is the RTT cut (ms) achieving Accuracy.
	Threshold float64
	// Steps is the total number of simulator events executed across all
	// runs; VirtualSeconds is the total virtual time those runs covered.
	// EventsPerVirtualSec is their ratio — a cost measure independent of
	// host speed.
	Steps               uint64
	VirtualSeconds      float64
	EventsPerVirtualSec float64
}

func (r *Result) finalize() error {
	hit, err := stats.NewEmpirical(r.Hit)
	if err != nil {
		return fmt.Errorf("attack: %s: no hit samples: %w", r.Label, err)
	}
	miss, err := stats.NewEmpirical(r.Miss)
	if err != nil {
		return fmt.Errorf("attack: %s: no miss samples: %w", r.Label, err)
	}
	r.Accuracy, r.Threshold = stats.ThresholdAccuracy(hit, miss)
	if r.VirtualSeconds > 0 {
		r.EventsPerVirtualSec = float64(r.Steps) / r.VirtualSeconds
	}
	return nil
}

// runSample is one repetition's measurements, merged into Result in run
// order by the batch executor.
type runSample struct {
	hit, miss      []float64
	steps          uint64
	virtualSeconds float64
}

// accountSim folds a finished run's simulator cost into the sample.
func (s *runSample) accountSim(sim *netsim.Simulator) {
	s.steps = sim.Steps()
	s.virtualSeconds = sim.Now().Seconds()
}

// runBatch executes cfg.Runs repetitions of runOne as a sweep: each run
// is one cell with a collision-free derived seed and private telemetry,
// executed on up to cfg.Parallel workers and merged in run order, so
// the samples (and any attached telemetry) are identical whether the
// batch ran serially or in parallel.
func runBatch[S any](label string, cfg ScenarioConfig, runOne func(sim *netsim.Simulator) (S, error)) ([]S, error) {
	cells := make([]sweep.Cell[S], cfg.Runs)
	for run := 0; run < cfg.Runs; run++ {
		run := run
		cells[run] = sweep.Cell[S]{
			Labels: []string{"scenario=" + label, fmt.Sprintf("run=%d", run)},
			Run: func(seed int64, prov telemetry.Provider) (S, error) {
				sim := netsim.New(seed)
				sim.SetTelemetry(prov.Metrics(), prov.TraceSink())
				sim.SetSpans(prov.Spans())
				telemetry.Emit(prov.TraceSink(), telemetry.Event{
					At:   int64(sim.Now()),
					Type: telemetry.EvRunStart,
					Run:  run,
				})
				if cfg.Observe != nil {
					cfg.Observe(run, sim)
				}
				return runOne(sim)
			},
		}
	}
	samples, err := sweep.Run(cells, sweep.Options{
		RootSeed: cfg.Seed,
		Parallel: cfg.Parallel,
		Metrics:  cfg.Metrics,
		Trace:    cfg.Trace,
		Spans:    cfg.Spans,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: %s: %w", label, err)
	}
	return samples, nil
}

// Histograms bins both sample sets identically for PDF rendering, using
// nBins over the pooled sample range.
func (r *Result) Histograms(nBins int) (hit, miss *stats.Histogram, err error) {
	lo, hi := r.Hit[0], r.Hit[0]
	for _, s := range append(append([]float64{}, r.Hit...), r.Miss...) {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	hit, err = stats.NewHistogram(lo, hi+1e-9, nBins)
	if err != nil {
		return nil, nil, err
	}
	miss, err = stats.NewHistogram(lo, hi+1e-9, nBins)
	if err != nil {
		return nil, nil, err
	}
	hit.AddAll(r.Hit)
	miss.AddAll(r.Miss)
	return hit, miss, nil
}

// Link configurations calibrated against the Figure 3 delay ranges.
// Absolute values are simulator parameters, not measurements; what must
// match the paper is the resulting hit/miss separability per scenario.
func lanEdge() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.UniformJitter{Base: 1500 * time.Microsecond, Jitter: 400 * time.Microsecond},
		Bandwidth: 12_500_000, // 100 Mb/s Fast Ethernet
	}
}

func lanBackbone() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.LogNormalJitter{Base: 2 * time.Millisecond, MedianJitter: 800 * time.Microsecond, Sigma: 0.6},
		Bandwidth: 125_000_000,
	}
}

func wanHop() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.LogNormalJitter{Base: 600 * time.Microsecond, MedianJitter: 150 * time.Microsecond, Sigma: 0.5},
		Bandwidth: 125_000_000,
	}
}

func wanProducerHop() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.LogNormalJitter{Base: 1500 * time.Microsecond, MedianJitter: 500 * time.Microsecond, Sigma: 0.6},
		Bandwidth: 125_000_000,
	}
}

func producerScenarioHop() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.LogNormalJitter{Base: 28 * time.Millisecond, MedianJitter: 2 * time.Millisecond, Sigma: 0.8},
		Bandwidth: 125_000_000,
	}
}

func localAttachment() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   netsim.LogNormalJitter{Base: 800 * time.Microsecond, MedianJitter: 900 * time.Microsecond, Sigma: 0.8},
		Bandwidth: 125_000_000,
	}
}

// RunLAN reproduces Figure 3(a): U and Adv share first-hop router R over
// Fast Ethernet; P sits across a backbone link. Near-perfect hit/miss
// separation is expected.
func RunLAN(cfg ScenarioConfig) (*Result, error) {
	return runMissPrimeHit("lan", cfg, consumerNetwork(lruStore, 0, lanEdge(), 1, lanBackbone()))
}

// RunWAN reproduces Figure 3(b): U and Adv are several (3) hops from the
// shared router R, and P is 3 hops past R. Jitter accumulates but the
// attack still distinguishes hits with ≈99% probability.
func RunWAN(cfg ScenarioConfig) (*Result, error) {
	return runMissPrimeHit("wan", cfg, consumerNetwork(lruStore, 2, wanHop(), 3, wanProducerHop()))
}

// RunProducerPrivacy reproduces Figure 3(c): P is directly connected to
// R while U and Adv are three high-latency hops away. Adv probes once
// per object; the tiny R↔P delta drowns in path jitter, so single-probe
// accuracy is barely above a coin flip (the paper reports 59%).
func RunProducerPrivacy(cfg ScenarioConfig) (*Result, error) {
	return runMissPrimeHit("producer", cfg, func(sim *netsim.Simulator, manager core.CacheManager) (network, error) {
		router, err := fwd.NewRouter(sim, "R", 0, manager)
		if err != nil {
			return network{}, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return network{}, err
		}
		// P adjacent to R. The base latency plus the producer's
		// response delay set the hit/miss RTT delta that must drown in
		// three hops of path jitter — calibrated so single-probe
		// accuracy lands near the paper's 59%.
		if err := fwd.Chain(sim, []*fwd.Forwarder{router, pHost}, netsim.LinkConfig{
			Latency:   netsim.UniformJitter{Base: 900 * time.Microsecond, Jitter: 200 * time.Microsecond},
			Bandwidth: 125_000_000,
		}, "/p"); err != nil {
			return network{}, err
		}
		user, err := hostPath(sim, "U", 2, router, producerScenarioHop())
		if err != nil {
			return network{}, err
		}
		adv, err := hostPath(sim, "A", 2, router, producerScenarioHop())
		if err != nil {
			return network{}, err
		}
		return network{user: user, adv: adv, producer: pHost, responseDelay: 300 * time.Microsecond}, nil
	})
}

// RunLocalHost reproduces Figure 3(d): a malicious application probes the
// local NDN daemon's cache that honest applications on the same host
// share. RTT differences are sub-millisecond but stark.
func RunLocalHost(cfg ScenarioConfig) (*Result, error) {
	return runMissPrimeHit("local", cfg, func(sim *netsim.Simulator, manager core.CacheManager) (network, error) {
		// The local daemon: a host forwarder WITH a content store.
		daemon, err := fwd.NewHost(sim, "ccnd", manager)
		if err != nil {
			return network{}, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return network{}, err
		}
		if err := fwd.Chain(sim, []*fwd.Forwarder{daemon, pHost}, localAttachment(), "/p"); err != nil {
			return network{}, err
		}
		return network{user: daemon, adv: daemon, producer: pHost}, nil
	})
}

// consumerNetwork builds the Figure 3(a)/(b) shape: U and Adv each reach
// the shared router R, whose Content Store store builds, over edgeHops
// storeless routers and links of edge; P sits producerHops links of
// backbone past R.
func consumerNetwork(store func() (*cache.Store, error), edgeHops int, edge netsim.LinkConfig, producerHops int, backbone netsim.LinkConfig) builder {
	return func(sim *netsim.Simulator, manager core.CacheManager) (network, error) {
		cs, err := store()
		if err != nil {
			return network{}, err
		}
		router, err := fwd.NewStoreRouter(sim, "R", cs, manager)
		if err != nil {
			return network{}, err
		}
		user, err := hostPath(sim, "U", edgeHops, router, edge)
		if err != nil {
			return network{}, err
		}
		adv, err := hostPath(sim, "A", edgeHops, router, edge)
		if err != nil {
			return network{}, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return network{}, err
		}
		pHops, err := storelessHops(sim, "P", producerHops-1)
		if err != nil {
			return network{}, err
		}
		path := append(append([]*fwd.Forwarder{router}, pHops...), pHost)
		if err := fwd.Chain(sim, path, backbone, "/p"); err != nil {
			return network{}, err
		}
		return network{user: user, adv: adv, producer: pHost}, nil
	}
}

func lruStore() (*cache.Store, error) { return cache.NewStore(0, cache.NewLRU()) }

// hostPath attaches a new bare host to router through n storeless hops,
// all joined by links of link and routing /p toward router.
func hostPath(sim *netsim.Simulator, name string, n int, router *fwd.Forwarder, link netsim.LinkConfig) (*fwd.Forwarder, error) {
	host, err := fwd.NewBareHost(sim, name)
	if err != nil {
		return nil, err
	}
	hops, err := storelessHops(sim, name, n)
	if err != nil {
		return nil, err
	}
	path := append(append([]*fwd.Forwarder{host}, hops...), router)
	if err := fwd.Chain(sim, path, link, "/p"); err != nil {
		return nil, err
	}
	return host, nil
}

// storelessHops builds n routers named name-hop0, name-hop1, ... that
// carry no Content Store: the paper's probes target R specifically.
func storelessHops(sim *netsim.Simulator, name string, n int) ([]*fwd.Forwarder, error) {
	hops := make([]*fwd.Forwarder, n)
	for h := range hops {
		hop, err := fwd.New(fwd.Config{
			Name:            fmt.Sprintf("%s-hop%d", name, h),
			Sim:             sim,
			ProcessingDelay: fwd.DefaultRouterProcessing,
		})
		if err != nil {
			return nil, err
		}
		hops[h] = hop
	}
	return hops, nil
}

func objectName(i int) ndn.Name {
	return ndn.MustParseName("/p").AppendString("obj", fmt.Sprintf("%d", i))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
