package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
	"ndnprivacy/internal/trace"
)

// Figure5Config scales the trace-driven evaluation. The paper replayed a
// 3.2M-request IRCache trace with k = 5 and ε = 0.005; pass Requests at
// whatever scale the run budget allows — the cache sizes scale with it so
// the curve shape is preserved.
type Figure5Config struct {
	Seed     int64
	Requests int
	// K and Epsilon are the privacy parameters of Section VII.
	K       uint64
	Epsilon float64
	// PrivateFraction for Figure 5(a); Figure 5(b) sweeps its own.
	PrivateFraction float64
	// CacheSizes to sweep; 0 means the unlimited "Inf" column. When
	// empty, the paper's {2000, 4000, 8000, 16000, 32000, Inf} scaled by
	// Requests/3.2M is used.
	CacheSizes []int
	// Parallel bounds the worker pool replaying grid cells; 0 or 1 is
	// serial. Every cell's workload and manager randomness derive from
	// Seed and the cell's labels, so the tables are identical for every
	// value.
	Parallel int `json:"-"`
	// Metrics and Trace, when non-nil, attach telemetry to every replay;
	// each (algorithm, cache size) cell is labeled distinctly and merged
	// in grid order. The JSON marshaller must skip them — they are
	// wiring, not results.
	Metrics *telemetry.Registry `json:"-"`
	Trace   telemetry.Sink      `json:"-"`
	// Spans, when non-nil, collects each replay cell's cache-residency
	// spans, merged in grid order.
	Spans *span.Tracer `json:"-"`
}

func (c *Figure5Config) setDefaults() {
	if c.Requests == 0 {
		c.Requests = 100000
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.005
	}
	if c.PrivateFraction == 0 {
		c.PrivateFraction = 0.1
	}
	if len(c.CacheSizes) == 0 {
		c.CacheSizes = ScaledCacheSizes(c.Requests)
	}
}

// ScaledCacheSizes maps the paper's absolute cache sizes (for a 3.2M
// request trace) onto the configured trace length, preserving the
// cache-size-to-working-set ratio. The terminal 0 is the Inf column.
func ScaledCacheSizes(requests int) []int {
	paper := []int{2000, 4000, 8000, 16000, 32000}
	out := make([]int, 0, len(paper)+1)
	for _, s := range paper {
		scaled := int(float64(s) * float64(requests) / 3_200_000)
		if scaled < 16 {
			scaled = 16
		}
		out = append(out, scaled)
	}
	return append(out, 0)
}

// Figure5Row is one (algorithm, cache size) cell.
type Figure5Row struct {
	Algorithm string
	CacheSize int // 0 = Inf
	HitRate   float64
	Bandwidth float64 // bandwidth-saved rate, an extra column the paper discusses
}

// Figure5aResult is the algorithm comparison (E8).
type Figure5aResult struct {
	Config Figure5Config
	Rows   []Figure5Row
}

// figure5Algorithms is the fixed Section VII comparison set, in the
// paper's presentation order.
var figure5Algorithms = []string{
	"No Privacy",
	"Exponential-Random-Cache",
	"Uniform-Random-Cache",
	"Always Delay Private Content",
}

// buildAlgorithm constructs one Section VII cache manager with fresh
// state. rng feeds the randomized algorithms; each sweep cell passes its
// own derived-seed rng so cells never share a random stream.
func buildAlgorithm(cfg Figure5Config, name string, rng *rand.Rand) (core.CacheManager, error) {
	switch name {
	case "No Privacy":
		return core.NewNoPrivacy(), nil
	case "Exponential-Random-Cache":
		alpha, err := core.GeometricAlphaForEpsilon(cfg.K, cfg.Epsilon)
		if err != nil {
			return nil, err
		}
		dist, err := core.NewGeometricUnbounded(alpha)
		if err != nil {
			return nil, err
		}
		return core.NewRandomCache(dist, rng)
	case "Uniform-Random-Cache":
		// Uniform at matched δ: the exponential's K=∞ floor δ = 1 − α^k.
		alpha, err := core.GeometricAlphaForEpsilon(cfg.K, cfg.Epsilon)
		if err != nil {
			return nil, err
		}
		floorDelta := core.ExponentialPrivacy(cfg.K, alpha, 0).Delta
		dist, err := core.NewUniformForPrivacy(cfg.K, floorDelta)
		if err != nil {
			return nil, err
		}
		return core.NewRandomCache(dist, rng)
	case "Always Delay Private Content":
		return core.NewDelayManager(core.NewContentSpecificDelay())
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// compileTrace draws the synthetic workload every cell of a grid
// replays: it derives from the experiment seed, the request count and
// the private fraction only, so one compiled trace serves all of them.
func compileTrace(seed int64, requests int, frac float64) (*trace.Compiled, error) {
	genCfg := trace.DefaultGeneratorConfig(seed, requests)
	genCfg.PrivateFraction = frac
	return trace.Compile(genCfg)
}

// replayCell replays one synthetic-trace cell: the grid's shared trace
// under a manager whose randomness comes from the cell's derived seed,
// with the cell's telemetry.
func replayCell(cfg Figure5Config, workload *trace.Compiled, algo string, size int, node string, seed int64, prov telemetry.Provider) (Figure5Row, error) {
	manager, err := buildAlgorithm(cfg, algo, rand.New(rand.NewSource(seed)))
	if err != nil {
		return Figure5Row{}, err
	}
	stats, err := workload.Replay(trace.ReplayConfig{
		CacheSize: size,
		Manager:   manager,
		Metrics:   prov.Metrics(),
		Trace:     prov.TraceSink(),
		Spans:     prov.Spans(),
		Node:      node,
	})
	if err != nil {
		return Figure5Row{}, err
	}
	return Figure5Row{
		CacheSize: size,
		HitRate:   stats.HitRate(),
		Bandwidth: stats.BandwidthSavedRate(),
	}, nil
}

// Figure5a replays the trace under all four algorithms across the cache
// sweep. Each (cache size, algorithm) pair is one sweep cell; a failed
// cell leaves its row out of the table and surfaces in the returned
// *sweep.Errors alongside the partial result.
func Figure5a(cfg Figure5Config) (*Figure5aResult, error) {
	cfg.setDefaults()
	workload, err := compileTrace(cfg.Seed, cfg.Requests, cfg.PrivateFraction)
	if err != nil {
		return &Figure5aResult{Config: cfg}, fmt.Errorf("figure 5a: %w", err)
	}
	var cells []sweep.Cell[Figure5Row]
	for _, size := range cfg.CacheSizes {
		for _, algo := range figure5Algorithms {
			size, algo := size, algo
			cells = append(cells, sweep.Cell[Figure5Row]{
				Labels: []string{"fig=5a", "algo=" + algo, fmt.Sprintf("size=%d", size)},
				Run: func(seed int64, prov telemetry.Provider) (Figure5Row, error) {
					row, err := replayCell(cfg, workload, algo, size,
						fmt.Sprintf("5a/%s@%d", algo, size), seed, prov)
					if err != nil {
						return row, err
					}
					row.Algorithm = algo
					return row, nil
				},
			})
		}
	}
	rows, err := runFigure5Cells(cfg, cells)
	out := &Figure5aResult{Config: cfg, Rows: rows}
	if err != nil {
		return out, fmt.Errorf("figure 5a: %w", err)
	}
	return out, nil
}

// runFigure5Cells executes a Figure 5 grid and keeps the rows of every
// cell that succeeded, in grid order.
func runFigure5Cells(cfg Figure5Config, cells []sweep.Cell[Figure5Row]) ([]Figure5Row, error) {
	results, err := sweep.Run(cells, sweep.Options{
		RootSeed: cfg.Seed,
		Parallel: cfg.Parallel,
		Metrics:  cfg.Metrics,
		Trace:    cfg.Trace,
		Spans:    cfg.Spans,
	})
	rows := make([]Figure5Row, 0, len(results))
	for _, row := range results {
		if row.Algorithm == "" { // zero value: the cell failed
			continue
		}
		rows = append(rows, row)
	}
	return rows, err
}

// Render prints the Figure 5(a) table: one row per algorithm, one column
// per cache size.
func (r *Figure5aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure 5(a) — cache hit rate (%%), %d requests, %.0f%% private, k=%d, ε=%g ===\n",
		r.Config.Requests, r.Config.PrivateFraction*100, r.Config.K, r.Config.Epsilon)
	renderFigure5Table(&b, r.Rows, r.Config.CacheSizes)
	b.WriteString("(paper ordering: No Privacy > Exponential ≥ Uniform > Always Delay, all rising with cache size)\n")
	return b.String()
}

// Figure5bResult is the private-fraction sweep under
// Exponential-Random-Cache (E9).
type Figure5bResult struct {
	Config    Figure5Config
	Fractions []float64
	Rows      []Figure5Row // Algorithm field holds the fraction label
}

// Figure5b sweeps the private fraction {5, 10, 20, 40}% as in the paper.
// Each (fraction, cache size) pair is one sweep cell with a derived seed
// — the old additive derivation Seed+size+frac*1000 collided for e.g.
// (size=64, 20% private) and (size=164, 10% private), silently replaying
// identical manager randomness in distinct cells.
func Figure5b(cfg Figure5Config, fractions []float64) (*Figure5bResult, error) {
	cfg.setDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.1, 0.2, 0.4}
	}
	out := &Figure5bResult{Config: cfg, Fractions: append([]float64(nil), fractions...)}
	var cells []sweep.Cell[Figure5Row]
	for _, frac := range fractions {
		workload, err := compileTrace(cfg.Seed, cfg.Requests, frac)
		if err != nil {
			return out, fmt.Errorf("figure 5b: %w", err)
		}
		for _, size := range cfg.CacheSizes {
			frac, size := frac, size
			cells = append(cells, sweep.Cell[Figure5Row]{
				Labels: []string{"fig=5b", fmt.Sprintf("frac=%g", frac), fmt.Sprintf("size=%d", size)},
				Run: func(seed int64, prov telemetry.Provider) (Figure5Row, error) {
					row, err := replayCell(cfg, workload, "Exponential-Random-Cache", size,
						fmt.Sprintf("5b/p%.0f@%d", frac*100, size), seed, prov)
					if err != nil {
						return row, err
					}
					row.Algorithm = fmt.Sprintf("%.0f%% Private", frac*100)
					return row, nil
				},
			})
		}
	}
	rows, err := runFigure5Cells(cfg, cells)
	out.Rows = rows
	if err != nil {
		return out, fmt.Errorf("figure 5b: %w", err)
	}
	return out, nil
}

// Render prints the Figure 5(b) table.
func (r *Figure5bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure 5(b) — Exponential-Random-Cache hit rate (%%) vs private fraction, %d requests ===\n",
		r.Config.Requests)
	renderFigure5Table(&b, r.Rows, r.Config.CacheSizes)
	b.WriteString("(paper: hit rate decreases as the private fraction grows)\n")
	return b.String()
}

// SquidResult is a real proxy log's hit rate under three of the
// Section VII algorithms at one cache size.
type SquidResult struct {
	Path            string
	CacheSize       int
	PrivateFraction float64
	K               uint64
	Epsilon         float64
	Rows            []SquidRow
}

// SquidRow is one algorithm's replay of the log.
type SquidRow struct {
	Algorithm string
	Stats     trace.ReplayStats
}

// ReplaySquid replays the Squid/IRCache access log at path through a
// cacheSize-entry store (0 = unlimited) under No Privacy, Always Delay
// and Exponential-Random-Cache. cfg supplies the seed, k, ε, the private
// fraction and the telemetry.
func ReplaySquid(path string, cacheSize int, cfg Figure5Config) (*SquidResult, error) {
	out := &SquidResult{Path: path, CacheSize: cacheSize, PrivateFraction: cfg.PrivateFraction, K: cfg.K, Epsilon: cfg.Epsilon}
	for _, algo := range []string{"No Privacy", "Always Delay Private Content", "Exponential-Random-Cache"} {
		manager, err := buildAlgorithm(cfg, algo, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		stats, err := trace.ReplaySquidLog(f, trace.SquidOptions{PrivateFraction: cfg.PrivateFraction, Seed: cfg.Seed},
			trace.ReplayConfig{CacheSize: cacheSize, Manager: manager, Metrics: cfg.Metrics, Trace: cfg.Trace, Spans: cfg.Spans, Node: "squid/" + algo})
		if closeErr := f.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, SquidRow{Algorithm: algo, Stats: stats})
	}
	return out, nil
}

// Render prints one hit-rate line per algorithm. It ends without a
// newline: the Reporter adds one.
func (r *SquidResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replaying %s (cache %d, %.0f%% private, k=%d, ε=%g)",
		r.Path, r.CacheSize, r.PrivateFraction*100, r.K, r.Epsilon)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%-30s hit rate %6.2f%%  (%d requests, %d private)",
			row.Algorithm, row.Stats.HitRate(), row.Stats.Requests, row.Stats.PrivateRequests)
	}
	return b.String()
}

func renderFigure5Table(b *strings.Builder, rows []Figure5Row, sizes []int) {
	fmt.Fprintf(b, "%-30s", "algorithm \\ cache size")
	for _, s := range sizes {
		if s == 0 {
			fmt.Fprintf(b, "%9s", "Inf")
		} else {
			fmt.Fprintf(b, "%9d", s)
		}
	}
	b.WriteString("\n")
	// Preserve first-seen algorithm order.
	var order []string
	cells := make(map[string]map[int]float64)
	for _, row := range rows {
		if _, seen := cells[row.Algorithm]; !seen {
			order = append(order, row.Algorithm)
			cells[row.Algorithm] = make(map[int]float64)
		}
		cells[row.Algorithm][row.CacheSize] = row.HitRate
	}
	for _, algo := range order {
		fmt.Fprintf(b, "%-30s", algo)
		for _, s := range sizes {
			fmt.Fprintf(b, "%9.2f", cells[algo][s])
		}
		b.WriteString("\n")
	}
}
