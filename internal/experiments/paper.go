package experiments

import (
	"fmt"
	"strings"
	"sync"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// Params is everything one invocation of the paper's evaluation reads:
// the scale of each experiment family, the privacy parameters, and the
// telemetry every simulation and replay attaches to.
type Params struct {
	Seed int64
	// Objects and Runs scale the Figure 3 family (paper: 1000 × 50).
	Objects, Runs int
	// Requests is the Figure 5 trace length (paper: 3 200 000).
	Requests int
	// PrivateFraction is the private share of Figure 5(a) and of a
	// Squid-log replay.
	PrivateFraction float64
	// K and Epsilon parameterize Figure 5's Random-Cache schemes, the
	// Squid-log replay and the bounds table; Delta only the bounds table.
	K       uint64
	Epsilon float64
	Delta   float64
	// MaxC is the largest request count of Figure 4 and the bounds table.
	MaxC uint64
	// SquidLog is the access log the "squid" entry replays at CacheSize.
	SquidLog  string
	CacheSize int
	// Parallel bounds every sweep's worker pool; no output depends on it.
	Parallel int
	// Metrics, Trace and Spans, when non-nil, collect the telemetry of
	// the Figure 3 simulations and the Figure 5 and Squid-log replays;
	// Observe is handed every Figure 3 simulator.
	Metrics *telemetry.Registry
	Trace   telemetry.Sink
	Spans   *span.Tracer
	Observe func(run int, sim *netsim.Simulator)
}

// Result is one reported table under its JSON key.
type Result struct {
	Key   string
	Table Renderable
}

// Experiment is one entry of the paper's evaluation.
type Experiment struct {
	// ID names the entry on the command line.
	ID string
	// Extra entries run only when named, never as part of "all".
	Extra bool
	// Run returns the entry's tables in report order. When the error
	// wraps a *sweep.Errors, the tables hold the cells that succeeded.
	Run func(*Session) ([]Result, error)
}

// Session runs table entries with one Params. It runs Figure 3(c) at
// most once, because the segment-amplification entry reads its accuracy:
// under "all" a second run would merge 3(c)'s telemetry twice.
type Session struct {
	Params
	figure3c func() (*Figure3Result, error)
}

// NewSession prepares entries to run with p.
func NewSession(p Params) *Session {
	s := &Session{Params: p}
	s.figure3c = sync.OnceValues(func() (*Figure3Result, error) { return Figure3c(s.figure3()) })
	return s
}

func (s *Session) figure3() attack.ScenarioConfig {
	return attack.ScenarioConfig{Seed: s.Seed, Objects: s.Objects, Runs: s.Runs, Parallel: s.Parallel,
		Metrics: s.Metrics, Trace: s.Trace, Spans: s.Spans, Observe: s.Observe}
}

func (s *Session) figure5() Figure5Config {
	return Figure5Config{Seed: s.Seed, Requests: s.Requests, K: s.K, Epsilon: s.Epsilon,
		PrivateFraction: s.PrivateFraction, Parallel: s.Parallel,
		Metrics: s.Metrics, Trace: s.Trace, Spans: s.Spans}
}

// one reports res under key, unless the experiment produced no result.
func one[T any, R interface {
	*T
	Renderable
}](key string, res R, err error) ([]Result, error) {
	if res == nil {
		return nil, err
	}
	return []Result{{key, res}}, err
}

// Table is the paper's evaluation in report order: Figure 3 and the
// in-text attacks, then Figure 4, then Figure 5 and the ablations.
var Table = []Experiment{
	{ID: "3a", Run: func(s *Session) ([]Result, error) {
		res, err := Figure3a(s.figure3())
		return one("figure3a", res, err)
	}},
	{ID: "3b", Run: func(s *Session) ([]Result, error) {
		res, err := Figure3b(s.figure3())
		return one("figure3b", res, err)
	}},
	{ID: "3c", Run: func(s *Session) ([]Result, error) {
		res, err := s.figure3c()
		return one("figure3c", res, err)
	}},
	{ID: "3d", Run: func(s *Session) ([]Result, error) {
		res, err := Figure3d(s.figure3())
		return one("figure3d", res, err)
	}},
	{ID: "seg", Run: func(s *Session) ([]Result, error) {
		res, err := s.figure3c()
		if err != nil {
			return nil, err
		}
		p := res.Result.Accuracy
		return []Result{{"segment-amplification", SegmentResult{SingleProbe: p, Rows: SegmentAmplification(p, 8)}}}, nil
	}},
	{ID: "scope", Run: func(s *Session) ([]Result, error) {
		res, err := RunScopeProbe(s.Seed)
		return one("scope-probe", res, err)
	}},
	{ID: "corr", Run: func(s *Session) ([]Result, error) {
		res, err := RunCorrelation(CorrelationConfig{Seed: s.Seed, Parallel: s.Parallel})
		return one("correlation", res, err)
	}},
	{ID: "loss", Run: func(s *Session) ([]Result, error) {
		res, err := RunLossRecovery(LossRecoveryConfig{Seed: s.Seed, Parallel: s.Parallel})
		return one("loss-recovery", res, err)
	}},
	{ID: "counter", Run: func(s *Session) ([]Result, error) {
		res, err := RunCountermeasures(s.figure3())
		return one("countermeasures", res, err)
	}},
	{ID: "place", Run: func(s *Session) ([]Result, error) {
		res, err := RunDelayPlacement(PlacementConfig{Seed: s.Seed, Objects: s.Objects / 4, Parallel: s.Parallel})
		return one("delay-placement", res, err)
	}},
	{ID: "tier", Run: func(s *Session) ([]Result, error) {
		res, err := RunTieredTiming(s.figure3())
		return one("tiered-timing", res, err)
	}},
	{ID: "conv", Run: func(s *Session) ([]Result, error) {
		res, err := attack.RunConversationDetection(attack.ConversationConfig{Seed: s.Seed, Parallel: s.Parallel})
		return one("conversation-detection", res, err)
	}},
	{ID: "4a", Run: func(s *Session) ([]Result, error) {
		var out []Result
		for _, k := range []uint64{1, 5} {
			res, err := Figure4a(k, 0.05, []float64{0.03, 0.04, 0.05}, s.MaxC)
			if err != nil {
				return out, err
			}
			out = append(out, Result{fmt.Sprintf("figure4a-k%d", k), res})
		}
		return out, nil
	}},
	{ID: "4b", Run: func(s *Session) ([]Result, error) {
		var out []Result
		for _, k := range []uint64{1, 5} {
			res, err := Figure4b(k, []float64{0.01, 0.03, 0.05}, s.MaxC)
			if err != nil {
				return out, err
			}
			out = append(out, Result{fmt.Sprintf("figure4b-k%d", k), res})
		}
		return out, nil
	}},
	{ID: "5a", Run: func(s *Session) ([]Result, error) {
		res, err := Figure5a(s.figure5())
		return one("figure5a", res, err)
	}},
	{ID: "5b", Run: func(s *Session) ([]Result, error) {
		res, err := Figure5b(s.figure5(), nil)
		return one("figure5b", res, err)
	}},
	{ID: "ablate", Run: func(s *Session) ([]Result, error) {
		evictions, err := RunEvictionAblationSweep(AblationConfig{Seed: s.Seed, Requests: s.Requests / 4, Parallel: s.Parallel})
		delays, delayErr := RunDelayStrategyAblation(0)
		if delayErr != nil {
			return nil, delayErr
		}
		return []Result{{"ablation-eviction", evictions}, {"ablation-delay-strategy", delays}}, err
	}},
	{ID: "bounds", Extra: true, Run: func(s *Session) ([]Result, error) {
		res, err := Bounds(s.K, s.Epsilon, s.Delta, s.MaxC)
		return one("bounds", res, err)
	}},
	{ID: "audit", Extra: true, Run: func(s *Session) ([]Result, error) {
		res, err := RunPrivacyAudit(s.Seed)
		return one("privacy-audit", res, err)
	}},
	{ID: "squid", Extra: true, Run: func(s *Session) ([]Result, error) {
		res, err := ReplaySquid(s.SquidLog, s.CacheSize, s.figure5())
		return one("squid", res, err)
	}},
}

// Select returns the entries fig names: one ID, or "all" for every
// entry that is not Extra, in table order.
func Select(fig string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Table {
		if e.ID == fig || fig == "all" && !e.Extra {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown -fig %q (want %s)", fig, IDs())
	}
	return out, nil
}

// IDs lists every entry's ID, then "all".
func IDs() string {
	ids := make([]string, 0, len(Table)+1)
	for _, e := range Table {
		ids = append(ids, e.ID)
	}
	return strings.Join(append(ids, "all"), ", ")
}
