// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns structured rows/series plus a
// Render method producing the human-readable report. Table lists every
// experiment in report order; cmd/ndnsim runs it and the benchmark
// harness calls into this package, so the numbers in EXPERIMENTS.md come
// from exactly this code.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/netsim"
)

// figure3Bins is the number of bins of every rendered Figure 3 PDF.
const figure3Bins = 24

// Figure3Result wraps an attack scenario result with its paper context.
type Figure3Result struct {
	Figure   string // "3a", "3b", ...
	Caption  string
	PaperAcc string // the accuracy the paper reports, for the report
	Result   *attack.Result
	Bins     int
}

// Render produces the textual PDF plot and the accuracy line.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure %s — %s ===\n", r.Figure, r.Caption)
	fmt.Fprintf(&b, "samples: %d hit / %d miss\n", len(r.Result.Hit), len(r.Result.Miss))
	hit, miss, err := r.Result.Histograms(r.Bins)
	if err == nil {
		b.WriteString("cache hit RTT PDF [ms]:\n")
		b.WriteString(hit.Render(40))
		b.WriteString("cache miss RTT PDF [ms]:\n")
		b.WriteString(miss.Render(40))
	}
	fmt.Fprintf(&b, "single-probe distinguishing probability: %.4f (threshold %.3f ms)\n",
		r.Result.Accuracy, r.Result.Threshold)
	fmt.Fprintf(&b, "paper reports: %s\n", r.PaperAcc)
	fmt.Fprintf(&b, "simulator: %d events over %.3f virtual s (%.0f events/virtual-second)\n",
		r.Result.Steps, r.Result.VirtualSeconds, r.Result.EventsPerVirtualSec)
	return b.String()
}

// Figure3a runs the LAN consumer-privacy attack (E1).
func Figure3a(cfg attack.ScenarioConfig) (*Figure3Result, error) {
	return figure3(attack.RunLAN, cfg, "3a",
		"LAN: U, Adv on shared first-hop router R; P across the network", ">99.9%")
}

// Figure3b runs the WAN consumer-privacy attack (E2).
func Figure3b(cfg attack.ScenarioConfig) (*Figure3Result, error) {
	return figure3(attack.RunWAN, cfg, "3b",
		"WAN: U, Adv several hops from shared R; P three hops past R", ">99%")
}

// Figure3c runs the producer-privacy attack (E3).
func Figure3c(cfg attack.ScenarioConfig) (*Figure3Result, error) {
	return figure3(attack.RunProducerPrivacy, cfg, "3c",
		"WAN producer privacy: P adjacent to R; U, Adv three hops away", "≈59% (single probe)")
}

// Figure3d runs the local-host attack (E4).
func Figure3d(cfg attack.ScenarioConfig) (*Figure3Result, error) {
	return figure3(attack.RunLocalHost, cfg, "3d",
		"Local host: malicious application probes the shared local daemon cache",
		"near-certain (sharper than all network settings)")
}

// figure3 runs one Figure 3 scenario and puts its paper context on it.
func figure3(run func(attack.ScenarioConfig) (*attack.Result, error), cfg attack.ScenarioConfig, figure, caption, paperAcc string) (*Figure3Result, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Figure: figure, Caption: caption, PaperAcc: paperAcc, Result: res, Bins: figure3Bins}, nil
}

// SegmentRow is one row of the in-text amplification result (E5).
type SegmentRow struct {
	Segments int
	Success  float64
}

// SegmentAmplification computes Pr[SUCCESS] = 1 − (1 − p)^n for the
// measured single-probe accuracy p. The paper's example: p = 0.59 gives
// ≈0.999 at n = 8.
func SegmentAmplification(singleProbe float64, maxSegments int) []SegmentRow {
	rows := make([]SegmentRow, 0, maxSegments)
	for n := 1; n <= maxSegments; n++ {
		rows = append(rows, SegmentRow{
			Segments: n,
			Success:  attack.SegmentSuccessProbability(singleProbe, n),
		})
	}
	return rows
}

// RenderSegmentRows formats the amplification table.
func RenderSegmentRows(singleProbe float64, rows []SegmentRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== In-text result — multi-segment amplification (p = %.3f per segment) ===\n", singleProbe)
	b.WriteString("segments  Pr[SUCCESS]\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d  %.6f\n", r.Segments, r.Success)
	}
	b.WriteString("paper: p=0.59, n=8 → ≈0.999\n")
	return b.String()
}

// CountermeasureComparison runs the LAN attack against each countermeasure
// and reports the adversary's residual accuracy — the headline defense
// evaluation tying Section III to Section V.
type CountermeasureComparison struct {
	Rows []CountermeasureRow
}

// CountermeasureRow is one countermeasure's residual attack accuracy.
type CountermeasureRow struct {
	Name     string
	Accuracy float64
}

// defense is one countermeasure the attacks run against: a constructor
// for ScenarioConfig.Manager, nil for the undefended baseline.
type defense struct {
	name  string
	build func(sim *netsim.Simulator) core.CacheManager
}

// The countermeasures of the Figure 3 and tiered-store tables.
var (
	noDefense     = defense{name: "no countermeasure"}
	constantDelay = defense{"always-delay/constant γ=12ms", func(*netsim.Simulator) core.CacheManager {
		return delayManager(core.NewConstantDelay(12 * time.Millisecond))
	}}
	contentSpecificDelay = defense{"always-delay/content-specific γ_C", func(*netsim.Simulator) core.CacheManager {
		return delayManager(core.NewContentSpecificDelay(), nil)
	}}
	dynamicDelay = defense{"always-delay/dynamic", func(*netsim.Simulator) core.CacheManager {
		return delayManager(core.NewDynamicDelay(4*time.Millisecond, 32))
	}}
	uniformRandomCache = defense{"uniform random-cache (k=1, δ=0.05)", func(sim *netsim.Simulator) core.CacheManager {
		dist, err := core.NewUniformForPrivacy(1, 0.05)
		if err != nil {
			panic(err)
		}
		m, err := core.NewRandomCache(dist, sim.Rand())
		if err != nil {
			panic(err)
		}
		return m
	}}
)

// delayManager wraps a delay strategy in an always-delay manager. The
// strategies above are constants, so an error is a programming error.
func delayManager(strategy core.DelayStrategy, err error) core.CacheManager {
	if err != nil {
		panic(err)
	}
	m, err := core.NewDelayManager(strategy)
	if err != nil {
		panic(err)
	}
	return m
}

// against returns cfg run under d: d's manager, with content marked
// private whenever there is a countermeasure to exercise.
func (d defense) against(cfg attack.ScenarioConfig) attack.ScenarioConfig {
	cfg.Manager = d.build
	cfg.MarkPrivate = d.build != nil
	return cfg
}

// RunCountermeasures evaluates the LAN attack under no countermeasure,
// constant delay, content-specific delay, and dynamic delay.
func RunCountermeasures(cfg attack.ScenarioConfig) (*CountermeasureComparison, error) {
	out := &CountermeasureComparison{}
	for _, d := range []defense{noDefense, constantDelay, contentSpecificDelay, dynamicDelay} {
		// Every case runs with the same root seed on purpose: the
		// scenario label and run index drive the derived seeds, so all
		// four countermeasures face identical per-run randomness — a
		// paired comparison of residual accuracy.
		res, err := attack.RunLAN(d.against(cfg))
		if err != nil {
			return nil, fmt.Errorf("countermeasure %q: %w", d.name, err)
		}
		out.Rows = append(out.Rows, CountermeasureRow{Name: d.name, Accuracy: res.Accuracy})
	}
	return out, nil
}

// Render formats the countermeasure table.
func (c *CountermeasureComparison) Render() string {
	var b strings.Builder
	b.WriteString("=== Countermeasure evaluation — LAN attack residual accuracy ===\n")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-38s %.4f\n", r.Name, r.Accuracy)
	}
	b.WriteString("(0.5 = adversary reduced to guessing)\n")
	return b.String()
}
