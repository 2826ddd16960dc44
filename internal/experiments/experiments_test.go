package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/telemetry/span"
	"ndnprivacy/internal/trace"
)

func small3() attack.ScenarioConfig { return attack.ScenarioConfig{Seed: 1, Objects: 40, Runs: 2} }

func TestFigure3a(t *testing.T) {
	res, err := Figure3a(small3())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Accuracy < 0.99 {
		t.Errorf("3a accuracy = %g, want ≥ 0.99", res.Result.Accuracy)
	}
	out := res.Render()
	for _, want := range []string{"Figure 3a", "cache hit RTT PDF", "distinguishing probability"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestFigure3b(t *testing.T) {
	res, err := Figure3b(small3())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Accuracy < 0.95 {
		t.Errorf("3b accuracy = %g, want ≥ 0.95", res.Result.Accuracy)
	}
}

func TestFigure3c(t *testing.T) {
	res, err := Figure3c(attack.ScenarioConfig{Seed: 1, Objects: 80, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Accuracy < 0.52 || res.Result.Accuracy > 0.85 {
		t.Errorf("3c accuracy = %g, want weak signal in [0.52, 0.85]", res.Result.Accuracy)
	}
}

func TestFigure3d(t *testing.T) {
	res, err := Figure3d(small3())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Accuracy < 0.99 {
		t.Errorf("3d accuracy = %g, want ≥ 0.99", res.Result.Accuracy)
	}
}

func TestSegmentAmplification(t *testing.T) {
	rows := SegmentAmplification(0.59, 8)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[7].Success-0.999) > 0.001 {
		t.Errorf("n=8 success = %g, want ≈ 0.999 (paper)", rows[7].Success)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Success < rows[i-1].Success {
			t.Fatal("amplification not monotone")
		}
	}
	out := RenderSegmentRows(0.59, rows)
	if !strings.Contains(out, "amplification") {
		t.Error("render missing title")
	}
}

func TestRunCountermeasures(t *testing.T) {
	res, err := RunCountermeasures(attack.ScenarioConfig{Seed: 1, Objects: 40, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	baseline := res.Rows[0].Accuracy
	if baseline < 0.99 {
		t.Errorf("baseline accuracy = %g, want ≥ 0.99", baseline)
	}
	for _, row := range res.Rows[1:] {
		if row.Accuracy > baseline-0.2 {
			t.Errorf("%s residual accuracy %g too close to baseline %g", row.Name, row.Accuracy, baseline)
		}
	}
	if !strings.Contains(res.Render(), "Countermeasure") {
		t.Error("render missing title")
	}
}

func TestFigure4a(t *testing.T) {
	res, err := Figure4a(1, 0.05, []float64{0.03, 0.04, 0.05}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expo) != 3 {
		t.Fatalf("expo series = %d", len(res.Expo))
	}
	// Exponential beats uniform at every c for every ε (larger ε → more
	// utility).
	for si, series := range res.Expo {
		for c := 0; c < 100; c++ {
			if series.Values[c] < res.Uniform.Values[c]-1e-9 {
				t.Fatalf("series %d: expo %g < uniform %g at c=%d", si, series.Values[c], res.Uniform.Values[c], c+1)
			}
		}
	}
	// All utilities stay within [0, 1]. (Ordering across ε values at a
	// fixed c is not monotone: a smaller ε forces a larger α but may
	// admit a tighter truncation K — the paper's curves overlap too.)
	for _, series := range res.Expo {
		for c, v := range series.Values {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("%s: utility %g out of range at c=%d", series.Label, v, c+1)
			}
		}
	}
	if !strings.Contains(res.Render(), "Figure 4(a)") {
		t.Error("render missing title")
	}
}

func TestFigure4aK5(t *testing.T) {
	res, err := Figure4a(5, 0.05, []float64{0.03, 0.04, 0.05}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Utility grows with the number of requests (both panels of the
	// paper show this).
	for c := 1; c < 100; c++ {
		if res.Uniform.Values[c] < res.Uniform.Values[c-1]-1e-9 {
			t.Fatal("uniform utility not monotone")
		}
	}
}

func TestFigure4b(t *testing.T) {
	res, err := Figure4b(1, []float64{0.01, 0.03, 0.05}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diffs) != 3 {
		t.Fatalf("series = %d", len(res.Diffs))
	}
	for i := range res.Diffs {
		peak := res.MaxDifference(i)
		if peak <= 0 || peak > 0.2 {
			t.Errorf("δ=%g peak difference = %g, want in (0, 0.2] (paper: ≤ ≈0.12)", res.Deltas[i], peak)
		}
	}
	// Larger δ allows a larger gap.
	if res.MaxDifference(2) < res.MaxDifference(0) {
		t.Errorf("peak(δ=0.05)=%g < peak(δ=0.01)=%g", res.MaxDifference(2), res.MaxDifference(0))
	}
	if !strings.Contains(res.Render(), "Figure 4(b)") {
		t.Error("render missing title")
	}
}

func TestScaledCacheSizes(t *testing.T) {
	sizes := ScaledCacheSizes(3_200_000)
	want := []int{2000, 4000, 8000, 16000, 32000, 0}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
	tiny := ScaledCacheSizes(1000)
	for _, s := range tiny[:5] {
		if s < 16 {
			t.Errorf("scaled size %d below floor", s)
		}
	}
}

func TestFigure5a(t *testing.T) {
	res, err := Figure5a(Figure5Config{Seed: 1, Requests: 30000})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Config.CacheSizes
	if len(res.Rows) != 4*len(sizes) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 4*len(sizes))
	}
	byAlgo := make(map[string]map[int]float64)
	for _, row := range res.Rows {
		if byAlgo[row.Algorithm] == nil {
			byAlgo[row.Algorithm] = make(map[int]float64)
		}
		byAlgo[row.Algorithm][row.CacheSize] = row.HitRate
	}
	// Paper ordering at every cache size: NoPrivacy ≥ Expo, Uniform ≥
	// AlwaysDelay (small tolerance for randomized schemes).
	for _, size := range sizes {
		np := byAlgo["No Privacy"][size]
		expo := byAlgo["Exponential-Random-Cache"][size]
		uni := byAlgo["Uniform-Random-Cache"][size]
		ad := byAlgo["Always Delay Private Content"][size]
		if np < expo-0.3 || np < uni-0.3 {
			t.Errorf("size %d: no-privacy %g below random caches (%g, %g)", size, np, expo, uni)
		}
		if expo < ad-0.5 || uni < ad-0.5 {
			t.Errorf("size %d: random caches (%g, %g) below always-delay %g", size, expo, uni, ad)
		}
		if np <= ad {
			t.Errorf("size %d: no visible privacy cost (np %g ≤ ad %g)", size, np, ad)
		}
	}
	// Hit rate increases with cache size for No Privacy.
	prev := -1.0
	for _, size := range sizes[:len(sizes)-1] {
		hr := byAlgo["No Privacy"][size]
		if hr < prev-0.2 {
			t.Errorf("no-privacy hit rate fell at size %d: %g < %g", size, hr, prev)
		}
		prev = hr
	}
	if inf := byAlgo["No Privacy"][0]; inf < prev-0.2 {
		t.Errorf("Inf column %g below largest finite cache %g", inf, prev)
	}
	if !strings.Contains(res.Render(), "Figure 5(a)") {
		t.Error("render missing title")
	}
}

func TestFigure5b(t *testing.T) {
	res, err := Figure5b(Figure5Config{Seed: 2, Requests: 30000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fractions) != 4 {
		t.Fatalf("fractions = %v", res.Fractions)
	}
	byFrac := make(map[string]map[int]float64)
	for _, row := range res.Rows {
		if byFrac[row.Algorithm] == nil {
			byFrac[row.Algorithm] = make(map[int]float64)
		}
		byFrac[row.Algorithm][row.CacheSize] = row.HitRate
	}
	// More private content → lower hit rate, at the Inf column where
	// noise is smallest.
	h5 := byFrac["5% Private"][0]
	h40 := byFrac["40% Private"][0]
	if h40 >= h5 {
		t.Errorf("40%% private hit rate %g not below 5%% private %g", h40, h5)
	}
	if !strings.Contains(res.Render(), "Figure 5(b)") {
		t.Error("render missing title")
	}
}

// ReplaySquid hands its tracer to every replay, as Figure 5 does: a
// three-line log, two of its requests for one URL, records a residency
// span for each entry each of the three stores cached.
func TestReplaySquidRecordsSpans(t *testing.T) {
	const log = `1188637445.123 95 203.0.113.7 TCP_MISS/200 4512 GET http://example.com/a - DIRECT/198.51.100.2 text/html
1188637445.500 12 203.0.113.7 TCP_HIT/200 4512 GET http://example.com/a - NONE/- text/html
1188637446.000 200 203.0.113.9 TCP_MISS/200 900 GET http://other.org/b - DIRECT/192.0.2.9 text/html
`
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	tracer := span.NewTracer(1)
	if _, err := ReplaySquid(path, 0, Figure5Config{Seed: 1, K: 5, Epsilon: 0.005, Spans: tracer}); err != nil {
		t.Fatal(err)
	}
	residencies := 0
	for _, r := range tracer.Records() {
		if r.Kind == span.KindResidency {
			residencies++
		}
	}
	if residencies != 6 {
		t.Errorf("replaying 2 URLs through 3 stores recorded %d residency spans, want 6", residencies)
	}
}

// The seed reaches ReplaySquid's managers: seed 1 replays the same rows
// twice, and seed 2 moves Exponential-Random-Cache's row but not No
// Privacy's. Every URL is private, so which requests are private does
// not depend on the seed.
func TestReplaySquidSeedReachesManager(t *testing.T) {
	gen, err := trace.NewGenerator(trace.DefaultGeneratorConfig(1, 4000))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := trace.WriteSquidLog(&log, gen); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	replay := func(seed int64) map[string]trace.ReplayStats {
		res, err := ReplaySquid(path, 0, Figure5Config{Seed: seed, K: 5, Epsilon: 0.005, PrivateFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[string]trace.ReplayStats)
		for _, row := range res.Rows {
			rows[row.Algorithm] = row.Stats
		}
		return rows
	}
	one, again, two := replay(1), replay(1), replay(2)
	if !reflect.DeepEqual(one, again) {
		t.Errorf("seed 1 replayed twice gave %+v, then %+v", one, again)
	}
	const erc = "Exponential-Random-Cache"
	if two[erc] == one[erc] {
		t.Errorf("seeds 1 and 2 gave %s the same row %+v: the seed does not reach its manager", erc, one[erc])
	}
	if two["No Privacy"] != one["No Privacy"] {
		t.Errorf("seed moved No Privacy's row: %+v vs %+v", one["No Privacy"], two["No Privacy"])
	}
}

func TestRunCorrelation(t *testing.T) {
	res, err := RunCorrelation(CorrelationConfig{Seed: 3, Trials: 800})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Rows[0]
	last := res.Rows[len(res.Rows)-1]
	// Ungrouped detection grows materially with set size.
	if last.UngroupedDetection-first.UngroupedDetection < 0.1 {
		t.Errorf("ungrouped detection barely grew: %g → %g",
			first.UngroupedDetection, last.UngroupedDetection)
	}
	// Grouped detection stays near its single-object level.
	if math.Abs(last.GroupedDetection-first.GroupedDetection) > 0.08 {
		t.Errorf("grouped detection drifted: %g → %g",
			first.GroupedDetection, last.GroupedDetection)
	}
	// And the gap at the largest set size is decisive.
	if last.UngroupedDetection-last.GroupedDetection < 0.1 {
		t.Errorf("grouping did not help at n=%d: %g vs %g",
			last.SetSize, last.UngroupedDetection, last.GroupedDetection)
	}
	if !strings.Contains(res.Render(), "correlation attack") {
		t.Error("render missing title")
	}
}

func TestRunLossRecovery(t *testing.T) {
	res, err := RunLossRecovery(LossRecoveryConfig{Seed: 4, Packets: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var withCache, without LossRecoveryRow
	for _, row := range res.Rows {
		if row.Caching {
			withCache = row
		} else {
			without = row
		}
	}
	if withCache.Retries == 0 || without.Retries == 0 {
		t.Fatalf("no retries observed (loss not exercised): %+v %+v", withCache, without)
	}
	// With caching, retried fetches recover fast from R.
	if withCache.RetryMeanMs >= without.RetryMeanMs {
		t.Errorf("cached retry RTT %gms not below uncached %gms",
			withCache.RetryMeanMs, without.RetryMeanMs)
	}
	if withCache.RecoveredFast == 0 {
		t.Error("no fast recoveries with caching")
	}
	if !strings.Contains(res.Render(), "loss recovery") {
		t.Error("render missing title")
	}
}

func TestRunScopeProbe(t *testing.T) {
	res, err := RunScopeProbe(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.BeforePriming {
		t.Error("cold scope probe returned content")
	}
	if !res.AfterPriming {
		t.Error("primed scope probe returned nothing")
	}
	if !strings.Contains(res.Render(), "scope-2") {
		t.Error("render missing title")
	}
}

func TestRunEvictionAblationSweep(t *testing.T) {
	res, err := RunEvictionAblationSweep(AblationConfig{Seed: 6, Requests: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	rates := make(map[string]map[int]float64)
	for _, row := range res.Rows {
		if rates[row.Policy] == nil {
			rates[row.Policy] = make(map[int]float64)
		}
		rates[row.Policy][row.CacheSize] = row.HitRate
		if row.HitRate <= 0 || row.HitRate >= 100 {
			t.Errorf("%s@%d hit rate %g out of range", row.Policy, row.CacheSize, row.HitRate)
		}
	}
	// On a Zipf workload LRU should beat FIFO at the smallest size.
	smallest := 20000 / 100
	if rates["lru"][smallest] < rates["fifo"][smallest]-0.5 {
		t.Errorf("LRU %g worse than FIFO %g at size %d",
			rates["lru"][smallest], rates["fifo"][smallest], smallest)
	}
	if !strings.Contains(res.Render(), "eviction policy") {
		t.Error("render missing title")
	}
}

func TestRunDelayStrategyAblation(t *testing.T) {
	res, err := RunDelayStrategyAblation(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := make(map[string]DelayStrategyRow)
	for _, row := range res.Rows {
		byName[row.Strategy] = row
	}
	constant := byName["constant"]
	if constant.NearPenaltyMs <= 0 {
		t.Error("constant γ shows no near-content penalty")
	}
	if constant.FarLeakMs <= 0 {
		t.Error("constant γ shows no far-content leak")
	}
	specific := byName["content-specific"]
	if specific.NearPenaltyMs != 0 || specific.FarLeakMs != 0 {
		t.Errorf("content-specific γ_C should have neither flaw: %+v", specific)
	}
	if !strings.Contains(res.Render(), "delay strategies") {
		t.Error("render missing title")
	}
}

func TestRunDelayPlacement(t *testing.T) {
	res, err := RunDelayPlacement(PlacementConfig{Seed: 8, Objects: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byPolicy := make(map[string]PlacementRow)
	for _, row := range res.Rows {
		byPolicy[row.Policy] = row
	}
	none := byPolicy["none"]
	consumer := byPolicy["consumer-facing"]
	all := byPolicy["all"]

	// No delaying: both adversaries succeed.
	if none.EdgeAdvAccuracy < 0.95 || none.CoreAdvAccuracy < 0.95 {
		t.Errorf("baseline adversaries should win: A1=%g A2=%g", none.EdgeAdvAccuracy, none.CoreAdvAccuracy)
	}
	// Consumer-facing delaying stops A1 but not A2.
	if consumer.EdgeAdvAccuracy > 0.7 {
		t.Errorf("consumer-facing: A1 accuracy %g, want collapsed", consumer.EdgeAdvAccuracy)
	}
	if consumer.CoreAdvAccuracy < 0.9 {
		t.Errorf("consumer-facing: A2 accuracy %g, want still high", consumer.CoreAdvAccuracy)
	}
	// Delaying everywhere stops both, at the cost of interior-hit latency.
	if all.EdgeAdvAccuracy > 0.7 || all.CoreAdvAccuracy > 0.7 {
		t.Errorf("all-delay: adversaries not stopped: A1=%g A2=%g", all.EdgeAdvAccuracy, all.CoreAdvAccuracy)
	}
	if consumer.InteriorHitLatencyMs >= none.ColdLatencyMs-5 {
		t.Errorf("consumer-facing lost the interior-cache benefit: hit %gms vs cold %gms",
			consumer.InteriorHitLatencyMs, none.ColdLatencyMs)
	}
	if all.InteriorHitLatencyMs < consumer.InteriorHitLatencyMs+5 {
		t.Errorf("all-delay should forfeit the interior-cache benefit: %gms vs %gms",
			all.InteriorHitLatencyMs, consumer.InteriorHitLatencyMs)
	}
	if !strings.Contains(res.Render(), "Footnote 6") {
		t.Error("render missing title")
	}
}

func TestRunLossRecoveryBursty(t *testing.T) {
	res, err := RunLossRecovery(LossRecoveryConfig{Seed: 4, Packets: 400, Bursty: true})
	if err != nil {
		t.Fatal(err)
	}
	var withCache, without LossRecoveryRow
	for _, row := range res.Rows {
		if row.Caching {
			withCache = row
		} else {
			without = row
		}
	}
	if withCache.Retries == 0 {
		t.Fatal("bursty loss produced no retries")
	}
	if withCache.RetryMeanMs >= without.RetryMeanMs {
		t.Errorf("bursty: cached retry RTT %gms not below uncached %gms",
			withCache.RetryMeanMs, without.RetryMeanMs)
	}
}

func TestFigure4aInfeasibleParameters(t *testing.T) {
	// δ below the exponential scheme's floor 1−α^k at this ε is
	// infeasible and must surface as an error, not silently degrade:
	// ε=0.1 forces floor ≈ 0.095 ≫ δ=0.001.
	if _, err := Figure4a(5, 0.001, []float64{0.1}, 50); err == nil {
		t.Error("infeasible (ε, δ) accepted")
	}
	if _, err := Figure4a(5, 0, []float64{0.03}, 50); err == nil {
		t.Error("δ=0 accepted")
	}
}

func TestFigure4bInvalidDelta(t *testing.T) {
	if _, err := Figure4b(1, []float64{1.5}, 50); err == nil {
		t.Error("δ>1 accepted")
	}
}

// TestFigure5aAllocBudget is the replay path's regression floor, the
// Figure 5 counterpart of fwd's TestCachedFetchAllocBudget. One trace
// is compiled per sweep and shared by the 24 cells, the store's sorted
// index is never built, a generated miss refreshes its entry in place,
// and a store keeps the compiled object's own Data rather than a copy,
// so what is left per replayed request is the per-sweep compile (the
// object names, each one buffer and no rendered URI) and the Entry a
// store allocates for a new object while its free list is empty, spread
// over the cells: 0.227 measured at this size. A URI rendered per name
// brings back 0.250; a header copy per insert adds about 0.87; a
// generator per cell cost 9.84.
func TestFigure5aAllocBudget(t *testing.T) {
	const requests = 2000
	cells := len(ScaledCacheSizes(requests)) * len(figure5Algorithms)
	n := testing.AllocsPerRun(3, func() {
		res, err := Figure5a(Figure5Config{Seed: 1, Requests: requests})
		if err != nil || len(res.Rows) != cells {
			t.Fatalf("%d of %d cells replayed: %v", len(res.Rows), cells, err)
		}
	})
	if perRequest := n / float64(cells*requests); perRequest > 0.24 {
		t.Errorf("Figure 5(a) sweep: %.3f allocs per replayed request, want <= 0.24", perRequest)
	}
}

func TestFigure5aCustomCacheSizes(t *testing.T) {
	res, err := Figure5a(Figure5Config{Seed: 9, Requests: 5000, CacheSizes: []int{64, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Config.CacheSizes) != 2 {
		t.Fatalf("CacheSizes = %v", res.Config.CacheSizes)
	}
	if len(res.Rows) != 8 {
		t.Errorf("rows = %d, want 4 algorithms × 2 sizes", len(res.Rows))
	}
	sawInf := false
	for _, row := range res.Rows {
		if row.CacheSize == 0 {
			sawInf = true
		}
	}
	if !sawInf {
		t.Error("Inf column missing")
	}
}

func TestCorrelationCustomSetSizes(t *testing.T) {
	res, err := RunCorrelation(CorrelationConfig{Seed: 2, Trials: 100, SetSizes: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1].SetSize != 3 {
		t.Errorf("rows = %+v", res.Rows)
	}
}
