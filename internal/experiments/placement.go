package experiments

import (
	"fmt"
	"strings"
	"time"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/stats"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
)

// E14 — delay placement (the question footnote 6 defers to future
// work): which routers should introduce artificial delays? The paper
// argues for consumer-facing routers only, since "if all NDN routers
// independently do so, overall delay for consumers requesting content
// would likely become unbearable." This experiment quantifies that
// trade-off on a two-router chain:
//
//	U, A1 ── R1 ── R2 ── P
//	              │
//	              A2
//
// R1 is consumer-facing; A1 probes R1 (the likely adversary), A2 is an
// adversary deeper in the network probing R2. Three policies: no router
// delays, only R1 delays, both delay. Measured: each adversary's
// accuracy and the honest consumer's latency for content cached at R2
// but not R1 — the case where needless delaying at interior routers
// destroys the in-network caching benefit.

// PlacementRow is one policy's outcome.
type PlacementRow struct {
	Policy string
	// EdgeAdvAccuracy is A1's hit/miss accuracy probing R1.
	EdgeAdvAccuracy float64
	// CoreAdvAccuracy is A2's accuracy probing R2.
	CoreAdvAccuracy float64
	// InteriorHitLatencyMs is U's mean fetch latency for content cached
	// at R2 only.
	InteriorHitLatencyMs float64
	// ColdLatencyMs is U's mean fetch latency for uncached content
	// (baseline full path).
	ColdLatencyMs float64
}

// PlacementConfig scales E14.
type PlacementConfig struct {
	Seed    int64
	Objects int
	// Parallel bounds the worker pool; 0 or 1 is serial. Each policy
	// runs on its own derived seed, so rows are identical for every
	// value.
	Parallel int `json:"-"`
}

func (c *PlacementConfig) setDefaults() {
	if c.Objects == 0 {
		c.Objects = 60
	}
}

// PlacementResult holds all three policies.
type PlacementResult struct {
	Config PlacementConfig
	Rows   []PlacementRow
}

// RunDelayPlacement evaluates the three placements, one sweep cell per
// policy. The cell label drives each cell's derived seed.
func RunDelayPlacement(cfg PlacementConfig) (*PlacementResult, error) {
	cfg.setDefaults()
	out := &PlacementResult{Config: cfg}
	policies := []string{"none", "consumer-facing", "all"}
	cells := make([]sweep.Cell[PlacementRow], len(policies))
	for i, policy := range policies {
		policy := policy
		cells[i] = sweep.Cell[PlacementRow]{
			Labels: []string{"fig=placement", "policy=" + policy},
			Run: func(seed int64, _ telemetry.Provider) (PlacementRow, error) {
				row, err := runPlacement(cfg, policy, seed)
				if err != nil {
					return PlacementRow{}, err
				}
				return *row, nil
			},
		}
	}
	rows, err := sweep.Run(cells, sweep.Options{RootSeed: cfg.Seed, Parallel: cfg.Parallel})
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	out.Rows = rows
	return out, nil
}

func runPlacement(cfg PlacementConfig, policy string, seed int64) (*PlacementRow, error) {
	sim := netsim.New(seed)
	delayManager := func() (core.CacheManager, error) {
		return core.NewDelayManager(core.NewContentSpecificDelay())
	}
	pickManager := func(consumerFacing bool) (core.CacheManager, error) {
		switch policy {
		case "none":
			return nil, nil //nolint:nilnil // nil manager = NoPrivacy default
		case "consumer-facing":
			if consumerFacing {
				return delayManager()
			}
			return nil, nil //nolint:nilnil
		case "all":
			return delayManager()
		default:
			return nil, fmt.Errorf("unknown policy %q", policy)
		}
	}

	r1Manager, err := pickManager(true)
	if err != nil {
		return nil, err
	}
	r2Manager, err := pickManager(false)
	if err != nil {
		return nil, err
	}
	r1, err := fwd.NewRouter(sim, "R1", 0, r1Manager)
	if err != nil {
		return nil, err
	}
	r2, err := fwd.NewRouter(sim, "R2", 0, r2Manager)
	if err != nil {
		return nil, err
	}
	uHost, err := fwd.NewBareHost(sim, "U")
	if err != nil {
		return nil, err
	}
	a1Host, err := fwd.NewBareHost(sim, "A1")
	if err != nil {
		return nil, err
	}
	a2Host, err := fwd.NewBareHost(sim, "A2")
	if err != nil {
		return nil, err
	}
	// A helper consumer attached at R2 primes R2's cache without
	// touching R1's.
	primeHost, err := fwd.NewBareHost(sim, "primer")
	if err != nil {
		return nil, err
	}
	pHost, err := fwd.NewBareHost(sim, "P")
	if err != nil {
		return nil, err
	}

	edge := netsim.LinkConfig{
		Latency: netsim.UniformJitter{Base: 1500 * time.Microsecond, Jitter: 300 * time.Microsecond},
	}
	interior := netsim.LinkConfig{
		Latency: netsim.LogNormalJitter{Base: 8 * time.Millisecond, MedianJitter: 500 * time.Microsecond, Sigma: 0.5},
	}
	far := netsim.LinkConfig{
		Latency: netsim.LogNormalJitter{Base: 20 * time.Millisecond, MedianJitter: time.Millisecond, Sigma: 0.5},
	}

	for _, link := range []struct {
		from, to *fwd.Forwarder
		cfg      netsim.LinkConfig
	}{
		{uHost, r1, edge}, {a1Host, r1, edge}, {r1, r2, interior},
		{a2Host, r2, edge}, {primeHost, r2, edge}, {r2, pHost, far},
	} {
		if err := fwd.Chain(sim, []*fwd.Forwarder{link.from, link.to}, link.cfg, "/p"); err != nil {
			return nil, err
		}
	}

	prefix := ndn.MustParseName("/p")
	producer, err := fwd.NewProducer(pHost, prefix, nil)
	if err != nil {
		return nil, err
	}
	// Four disjoint object pools of cfg.Objects each.
	var pools [4][]ndn.Name
	for k := range pools {
		pools[k] = make([]ndn.Name, cfg.Objects)
		for i := range pools[k] {
			pools[k][i] = prefix.AppendString("obj", fmt.Sprintf("%d", k*cfg.Objects+i))
			d, err := ndn.NewData(pools[k][i], []byte("payload"))
			if err != nil {
				return nil, err
			}
			d.Private = true
			if err := producer.Publish(d); err != nil {
				return nil, err
			}
		}
	}

	var probers [4]*attack.Prober
	for i, host := range []*fwd.Forwarder{uHost, primeHost, a1Host, a2Host} {
		if probers[i], err = attack.NewProber(host); err != nil {
			return nil, err
		}
	}
	user, primer, a1, a2 := probers[0], probers[1], probers[2], probers[3]

	row := &PlacementRow{Policy: policy}

	// Pool 0: cold-path baseline latency for U.
	var cold stats.Summary
	for _, name := range pools[0] {
		rtt, err := user.Probe(name)
		if err != nil {
			return nil, err
		}
		cold.AddDuration(rtt)
	}
	row.ColdLatencyMs = cold.Mean()

	// Pool 1: primed at R2 only, then fetched by U — the in-network
	// caching benefit that interior delaying destroys.
	for _, name := range pools[1] {
		if _, err := primer.Probe(name); err != nil {
			return nil, err
		}
	}
	var interiorHits stats.Summary
	for _, name := range pools[1] {
		rtt, err := user.Probe(name)
		if err != nil {
			return nil, err
		}
		interiorHits.AddDuration(rtt)
	}
	row.InteriorHitLatencyMs = interiorHits.Mean()

	// Pool 2: A1 probes R1 — misses cold, hits after U primes them.
	edgeAdv, err := attack.ProbeHalves(a1, user, pools[2])
	if err != nil {
		return nil, err
	}
	row.EdgeAdvAccuracy = edgeAdv.Accuracy

	// Pool 3: A2 probes R2 — misses cold, hits after the primer.
	coreAdv, err := attack.ProbeHalves(a2, primer, pools[3])
	if err != nil {
		return nil, err
	}
	row.CoreAdvAccuracy = coreAdv.Accuracy
	return row, nil
}

// Render formats the E14 table.
func (r *PlacementResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Footnote 6 — which routers should delay? (U,A1—R1—R2—P; A2 at R2) ===\n")
	b.WriteString("policy            A1 accuracy  A2 accuracy  R2-hit latency  cold latency\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s  %11.3f  %11.3f  %12.2fms  %10.2fms\n",
			row.Policy, row.EdgeAdvAccuracy, row.CoreAdvAccuracy,
			row.InteriorHitLatencyMs, row.ColdLatencyMs)
	}
	b.WriteString("(consumer-facing delaying stops the likely adversary A1 while preserving\n" +
		" the latency benefit of interior caches; delaying everywhere forfeits it)\n")
	return b.String()
}
