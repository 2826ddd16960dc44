package experiments

import (
	"fmt"
	"strings"
	"time"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/trace"
)

// Ablations for the design choices DESIGN.md calls out: the eviction
// policy behind the Content Store and the delay strategy behind the
// always-delay countermeasure.

// EvictionRow is one (policy, cache size) hit rate.
type EvictionRow struct {
	Policy    string
	CacheSize int
	HitRate   float64
}

// EvictionAblationResult compares LRU (the paper's choice) with FIFO and
// LFU on the same trace.
type EvictionAblationResult struct {
	Requests int
	Rows     []EvictionRow
}

// AblationConfig parameterizes the eviction ablation sweep.
type AblationConfig struct {
	Seed     int64
	Requests int
	// CacheSizes to sweep; empty means {1%, 5%, 20%} of Requests.
	CacheSizes []int
	// Parallel bounds the worker pool; 0 or 1 is serial. Every cell
	// replays the identical Seed-derived workload, so rows are the same
	// for every value.
	Parallel int `json:"-"`
}

// RunEvictionAblationSweep replays the default trace under each
// (policy, cache size) cell of the grid.
func RunEvictionAblationSweep(cfg AblationConfig) (*EvictionAblationResult, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 50000
	}
	if len(cfg.CacheSizes) == 0 {
		cfg.CacheSizes = []int{cfg.Requests / 100, cfg.Requests / 20, cfg.Requests / 5}
	}
	out := &EvictionAblationResult{Requests: cfg.Requests}
	// The ablation compares policies on the identical workload, and the
	// replay itself uses no other randomness: one trace serves every cell.
	workload, err := trace.Compile(trace.DefaultGeneratorConfig(cfg.Seed, cfg.Requests))
	if err != nil {
		return out, fmt.Errorf("ablation: %w", err)
	}
	var cells []sweep.Cell[EvictionRow]
	for _, policy := range []string{"lru", "fifo", "lfu"} {
		for _, size := range cfg.CacheSizes {
			policy, size := policy, size
			cells = append(cells, sweep.Cell[EvictionRow]{
				Labels: []string{"fig=ablation", "policy=" + policy, fmt.Sprintf("size=%d", size)},
				Run: func(_ int64, _ telemetry.Provider) (EvictionRow, error) {
					stats, err := workload.Replay(trace.ReplayConfig{
						CacheSize: size,
						Policy:    policy,
						Manager:   core.NewNoPrivacy(),
					})
					if err != nil {
						return EvictionRow{}, err
					}
					return EvictionRow{Policy: policy, CacheSize: size, HitRate: stats.HitRate()}, nil
				},
			})
		}
	}
	rows, err := sweep.Run(cells, sweep.Options{RootSeed: cfg.Seed, Parallel: cfg.Parallel})
	for _, row := range rows {
		if row.Policy == "" { // zero value: the cell failed
			continue
		}
		out.Rows = append(out.Rows, row)
	}
	if err != nil {
		return out, fmt.Errorf("ablation: %w", err)
	}
	return out, nil
}

// Render formats the eviction ablation.
func (r *EvictionAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Ablation — eviction policy, %d requests ===\n", r.Requests)
	b.WriteString("policy  cache size  hit rate (%)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s  %10d  %12.2f\n", row.Policy, row.CacheSize, row.HitRate)
	}
	return b.String()
}

// DelayStrategyRow reports one strategy's latency profile on private
// cache hits.
type DelayStrategyRow struct {
	Strategy string
	// MeanDelayMs is the mean artificial delay applied to private hits.
	MeanDelayMs float64
	// NearPenaltyMs is the delay imposed on content whose producer is
	// close (γ_C = 2ms) — constant γ over-delays it.
	NearPenaltyMs float64
	// FarLeakMs is the delay shortfall on far content (γ_C = 80ms) —
	// constant γ under-delays it, leaking cache state.
	FarLeakMs float64
}

// DelayStrategyAblation quantifies the Section V-B trade-off between the
// three artificial-delay strategies.
type DelayStrategyAblation struct {
	Gamma time.Duration
	Rows  []DelayStrategyRow
}

// RunDelayStrategyAblation evaluates the strategies on a synthetic mix
// of near (γ_C = 2ms) and far (γ_C = 80ms) private content.
func RunDelayStrategyAblation(gamma time.Duration) (*DelayStrategyAblation, error) {
	if gamma == 0 {
		gamma = 20 * time.Millisecond
	}
	constant, err := core.NewConstantDelay(gamma)
	if err != nil {
		return nil, err
	}
	dynamic, err := core.NewDynamicDelay(4*time.Millisecond, 16)
	if err != nil {
		return nil, err
	}
	strategies := []core.DelayStrategy{constant, core.NewContentSpecificDelay(), dynamic}

	near := privateEntryWithDelay("/near/x", 2*time.Millisecond)
	far := privateEntryWithDelay("/far/x", 80*time.Millisecond)

	out := &DelayStrategyAblation{Gamma: gamma}
	for _, s := range strategies {
		nearDelay := s.HitDelay(near, 0)
		farDelay := s.HitDelay(far, 0)
		row := DelayStrategyRow{
			Strategy:    s.Name(),
			MeanDelayMs: ms(nearDelay+farDelay) / 2,
		}
		if nearDelay > near.FetchDelay {
			row.NearPenaltyMs = ms(nearDelay - near.FetchDelay)
		}
		if farDelay < far.FetchDelay {
			row.FarLeakMs = ms(far.FetchDelay - farDelay)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the delay-strategy ablation.
func (r *DelayStrategyAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Ablation — delay strategies (constant γ=%v) ===\n", r.Gamma)
	b.WriteString("strategy           mean delay  near penalty  far leak\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-17s  %8.2fms  %10.2fms  %6.2fms\n",
			row.Strategy, row.MeanDelayMs, row.NearPenaltyMs, row.FarLeakMs)
	}
	b.WriteString("(Section V-B: constant γ either penalizes nearby content or leaks on far\n content; content-specific γ_C does neither)\n")
	return b.String()
}
