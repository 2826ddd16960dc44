package attack

import (
	"errors"
	"fmt"
	"time"

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

// observeRun invokes the caller's telemetry hook for a fresh simulator.
func (c *ScenarioConfig) observeRun(run int, sim *netsim.Simulator) {
	if c.Observe != nil {
		c.Observe(run, sim)
	}
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

// runScenarioBatch runs the batch and folds its samples, in run order,
// into one Result.
func runScenarioBatch(label string, cfg ScenarioConfig, runOne func(sim *netsim.Simulator) (runSample, error)) (*Result, error) {
	samples, err := runBatch(label, cfg, runOne)
	if err != nil {
		return nil, err
	}
	res := &Result{Label: label}
	for _, s := range samples {
		res.Hit = append(res.Hit, s.hit...)
		res.Miss = append(res.Miss, s.miss...)
		res.Steps += s.steps
		res.VirtualSeconds += s.virtualSeconds
	}
	if err := res.finalize(); err != nil {
		return nil, err
	}
	return res, nil
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
				cfg.observeRun(run, sim)
				return runOne(sim)
			},
		}
	}
	parallel := cfg.Parallel
	if parallel == 0 {
		parallel = 1
	}
	samples, err := sweep.Run(cells, sweep.Options{
		RootSeed: cfg.Seed,
		Parallel: parallel,
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
	return runConsumerScenario("lan", cfg, 0, lanEdge(), lanBackbone())
}

// RunWAN reproduces Figure 3(b): U and Adv are several (3) hops from the
// shared router R, and P is 3 hops past R. Jitter accumulates but the
// attack still distinguishes hits with ≈99% probability.
func RunWAN(cfg ScenarioConfig) (*Result, error) {
	return runConsumerScenario("wan", cfg, 2, wanHop(), wanProducerHop())
}

// runConsumerScenario builds U, Adv —(edgeHops extra routers)— R —(3 hops
// for WAN, 1 for LAN)— P and measures labeled hit/miss RTT samples at
// Adv.
func runConsumerScenario(label string, cfg ScenarioConfig, extraEdgeRouters int, edge, backboneCfg netsim.LinkConfig) (*Result, error) {
	cfg.setDefaults()
	half := cfg.Objects / 2
	if half == 0 {
		return nil, errors.New("attack: need at least 2 objects")
	}
	return runScenarioBatch(label, cfg, func(sim *netsim.Simulator) (runSample, error) {
		var sample runSample
		sim.SetPhase("build")
		var manager core.CacheManager
		if cfg.Manager != nil {
			manager = cfg.Manager(sim)
		}
		router, err := fwd.NewRouter(sim, "R", 0, manager)
		if err != nil {
			return sample, err
		}

		attachConsumerPath := func(hostName string) (*fwd.Forwarder, error) {
			host, err := fwd.NewBareHost(sim, hostName)
			if err != nil {
				return nil, err
			}
			path := []*fwd.Forwarder{host}
			// Intermediate routers carry no Content Store in this
			// scenario: the paper's probes target R specifically.
			for h := 0; h < extraEdgeRouters; h++ {
				mid, err := fwd.New(fwd.Config{
					Name:            fmt.Sprintf("%s-hop%d", hostName, h),
					Sim:             sim,
					ProcessingDelay: fwd.DefaultRouterProcessing,
				})
				if err != nil {
					return nil, err
				}
				path = append(path, mid)
			}
			path = append(path, router)
			if err := fwd.Chain(sim, path, edge, "/p"); err != nil {
				return nil, err
			}
			return host, nil
		}

		uHost, err := attachConsumerPath("U")
		if err != nil {
			return sample, err
		}
		aHost, err := attachConsumerPath("A")
		if err != nil {
			return sample, err
		}

		// Producer side: LAN has one backbone link; WAN has 3 hops.
		producerHops := 1
		if extraEdgeRouters > 0 {
			producerHops = 3
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return sample, err
		}
		pPath := []*fwd.Forwarder{router}
		for h := 0; h < producerHops-1; h++ {
			hop, err := fwd.New(fwd.Config{
				Name:            fmt.Sprintf("P-hop%d", h),
				Sim:             sim,
				ProcessingDelay: fwd.DefaultRouterProcessing,
			})
			if err != nil {
				return sample, err
			}
			pPath = append(pPath, hop)
		}
		pPath = append(pPath, pHost)
		if err := fwd.Chain(sim, pPath, backboneCfg, "/p"); err != nil {
			return sample, err
		}

		producer, err := fwd.NewProducer(pHost, ndn.MustParseName("/p"), nil)
		if err != nil {
			return sample, err
		}
		for i := 0; i < cfg.Objects; i++ {
			d, err := ndn.NewData(objectName(i), []byte(fmt.Sprintf("object %d payload", i)))
			if err != nil {
				return sample, err
			}
			d.Private = cfg.MarkPrivate
			if err := producer.Publish(d); err != nil {
				return sample, err
			}
		}

		user, err := fwd.NewConsumer(uHost)
		if err != nil {
			return sample, err
		}
		adv, err := NewProber(aHost)
		if err != nil {
			return sample, err
		}

		// Miss samples: Adv requests the first half cold.
		sim.SetPhase("probe-miss")
		for i := 0; i < half; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("miss probe %d: %w", i, err)
			}
			sample.miss = append(sample.miss, ms(rtt))
		}
		// Hit samples: U primes the second half, then Adv probes.
		sim.SetPhase("prime")
		for i := half; i < cfg.Objects; i++ {
			fetchSync(sim, user, objectName(i))
		}
		sim.SetPhase("probe-hit")
		for i := half; i < cfg.Objects; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("hit probe %d: %w", i, err)
			}
			sample.hit = append(sample.hit, ms(rtt))
		}
		sample.accountSim(sim)
		return sample, nil
	})
}

// RunProducerPrivacy reproduces Figure 3(c): P is directly connected to
// R while U and Adv are three high-latency hops away. Adv probes once
// per object; the tiny R↔P delta drowns in path jitter, so single-probe
// accuracy is barely above a coin flip (the paper reports 59%).
func RunProducerPrivacy(cfg ScenarioConfig) (*Result, error) {
	cfg.setDefaults()
	half := cfg.Objects / 2
	if half == 0 {
		return nil, errors.New("attack: need at least 2 objects")
	}
	return runScenarioBatch("producer", cfg, func(sim *netsim.Simulator) (runSample, error) {
		var sample runSample
		sim.SetPhase("build")
		var manager core.CacheManager
		if cfg.Manager != nil {
			manager = cfg.Manager(sim)
		}
		router, err := fwd.NewRouter(sim, "R", 0, manager)
		if err != nil {
			return sample, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return sample, err
		}
		// P adjacent to R. The base latency plus the producer's
		// response delay set the hit/miss RTT delta that must drown in
		// three hops of path jitter — calibrated so single-probe
		// accuracy lands near the paper's 59%.
		rpFace, _, _, err := fwd.Connect(sim, router, pHost, netsim.LinkConfig{
			Latency:   netsim.UniformJitter{Base: 900 * time.Microsecond, Jitter: 200 * time.Microsecond},
			Bandwidth: 125_000_000,
		})
		if err != nil {
			return sample, err
		}
		if err := router.RegisterPrefix(ndn.MustParseName("/p"), rpFace); err != nil {
			return sample, err
		}

		attach := func(hostName string) (*fwd.Forwarder, error) {
			host, err := fwd.NewBareHost(sim, hostName)
			if err != nil {
				return nil, err
			}
			path := []*fwd.Forwarder{host}
			for h := 0; h < 2; h++ {
				hop, err := fwd.New(fwd.Config{
					Name:            fmt.Sprintf("%s-hop%d", hostName, h),
					Sim:             sim,
					ProcessingDelay: fwd.DefaultRouterProcessing,
				})
				if err != nil {
					return nil, err
				}
				path = append(path, hop)
			}
			path = append(path, router)
			if err := fwd.Chain(sim, path, producerScenarioHop(), "/p"); err != nil {
				return nil, err
			}
			return host, nil
		}
		uHost, err := attach("U")
		if err != nil {
			return sample, err
		}
		aHost, err := attach("A")
		if err != nil {
			return sample, err
		}

		producer, err := fwd.NewProducer(pHost, ndn.MustParseName("/p"), nil)
		if err != nil {
			return sample, err
		}
		producer.ResponseDelay = 300 * time.Microsecond
		for i := 0; i < cfg.Objects; i++ {
			d, err := ndn.NewData(objectName(i), []byte(fmt.Sprintf("object %d payload", i)))
			if err != nil {
				return sample, err
			}
			d.Private = cfg.MarkPrivate
			if err := producer.Publish(d); err != nil {
				return sample, err
			}
		}
		user, err := fwd.NewConsumer(uHost)
		if err != nil {
			return sample, err
		}
		adv, err := NewProber(aHost)
		if err != nil {
			return sample, err
		}

		// Miss: nobody requested; Adv's probe travels to P.
		sim.SetPhase("probe-miss")
		for i := 0; i < half; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("miss probe %d: %w", i, err)
			}
			sample.miss = append(sample.miss, ms(rtt))
		}
		// Hit: U recently fetched, so R serves from cache.
		sim.SetPhase("prime")
		for i := half; i < cfg.Objects; i++ {
			fetchSync(sim, user, objectName(i))
		}
		sim.SetPhase("probe-hit")
		for i := half; i < cfg.Objects; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("hit probe %d: %w", i, err)
			}
			sample.hit = append(sample.hit, ms(rtt))
		}
		sample.accountSim(sim)
		return sample, nil
	})
}

// RunLocalHost reproduces Figure 3(d): a malicious application probes the
// local NDN daemon's cache that honest applications on the same host
// share. RTT differences are sub-millisecond but stark.
func RunLocalHost(cfg ScenarioConfig) (*Result, error) {
	cfg.setDefaults()
	half := cfg.Objects / 2
	if half == 0 {
		return nil, errors.New("attack: need at least 2 objects")
	}
	return runScenarioBatch("local", cfg, func(sim *netsim.Simulator) (runSample, error) {
		var sample runSample
		sim.SetPhase("build")
		var manager core.CacheManager
		if cfg.Manager != nil {
			manager = cfg.Manager(sim)
		}
		// The local daemon: a host forwarder WITH a content store.
		daemon, err := fwd.NewHost(sim, "ccnd", manager)
		if err != nil {
			return sample, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return sample, err
		}
		dFace, _, _, err := fwd.Connect(sim, daemon, pHost, localAttachment())
		if err != nil {
			return sample, err
		}
		if err := daemon.RegisterPrefix(ndn.MustParseName("/p"), dFace); err != nil {
			return sample, err
		}
		producer, err := fwd.NewProducer(pHost, ndn.MustParseName("/p"), nil)
		if err != nil {
			return sample, err
		}
		for i := 0; i < cfg.Objects; i++ {
			d, err := ndn.NewData(objectName(i), []byte(fmt.Sprintf("object %d payload", i)))
			if err != nil {
				return sample, err
			}
			d.Private = cfg.MarkPrivate
			if err := producer.Publish(d); err != nil {
				return sample, err
			}
		}
		honest, err := fwd.NewConsumer(daemon)
		if err != nil {
			return sample, err
		}
		malicious, err := NewProber(daemon)
		if err != nil {
			return sample, err
		}

		sim.SetPhase("probe-miss")
		for i := 0; i < half; i++ {
			rtt, err := malicious.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("miss probe %d: %w", i, err)
			}
			sample.miss = append(sample.miss, ms(rtt))
		}
		sim.SetPhase("prime")
		for i := half; i < cfg.Objects; i++ {
			fetchSync(sim, honest, objectName(i))
		}
		sim.SetPhase("probe-hit")
		for i := half; i < cfg.Objects; i++ {
			rtt, err := malicious.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("hit probe %d: %w", i, err)
			}
			sample.hit = append(sample.hit, ms(rtt))
		}
		sample.accountSim(sim)
		return sample, nil
	})
}

func objectName(i int) ndn.Name {
	return ndn.MustParseName("/p").AppendString("obj", fmt.Sprintf("%d", i))
}

func fetchSync(sim *netsim.Simulator, c *fwd.Consumer, name ndn.Name) {
	c.FetchName(name, func(fwd.FetchResult) {})
	sim.Run()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
