package attack

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/netsim"
)

func TestRunLANSeparatesHitsFromMisses(t *testing.T) {
	res, err := RunLAN(ScenarioConfig{Seed: 1, Objects: 60, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.99 {
		t.Errorf("LAN accuracy = %g, want ≥ 0.99 (paper: 99.9%%)", res.Accuracy)
	}
	if len(res.Hit) != 90 || len(res.Miss) != 90 {
		t.Errorf("sample counts = %d/%d, want 90/90", len(res.Hit), len(res.Miss))
	}
	meanHit, meanMiss := mean(res.Hit), mean(res.Miss)
	if meanHit >= meanMiss {
		t.Errorf("mean hit RTT %g ≥ mean miss RTT %g", meanHit, meanMiss)
	}
}

func TestRunWANStillDistinguishes(t *testing.T) {
	res, err := RunWAN(ScenarioConfig{Seed: 2, Objects: 60, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.95 {
		t.Errorf("WAN accuracy = %g, want ≥ 0.95 (paper: 99%%)", res.Accuracy)
	}
}

func TestRunProducerPrivacyWeakSingleProbe(t *testing.T) {
	res, err := RunProducerPrivacy(ScenarioConfig{Seed: 3, Objects: 80, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Weak but above chance: the paper reports 59%. Accept a band.
	if res.Accuracy < 0.52 || res.Accuracy > 0.85 {
		t.Errorf("producer-privacy accuracy = %g, want weak signal in [0.52, 0.85]", res.Accuracy)
	}
	// Amplification pushes it near certainty for 8-segment content.
	amplified := SegmentSuccessProbability(res.Accuracy, 8)
	if amplified < 0.95 {
		t.Errorf("8-segment amplified success = %g, want ≥ 0.95", amplified)
	}
}

func TestRunLocalHostSharpest(t *testing.T) {
	res, err := RunLocalHost(ScenarioConfig{Seed: 4, Objects: 60, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.99 {
		t.Errorf("local-host accuracy = %g, want ≥ 0.99", res.Accuracy)
	}
	// Hits are sub-millisecond: app → daemon → app.
	if m := mean(res.Hit); m > 1.5 {
		t.Errorf("mean local hit RTT = %gms, want < 1.5ms", m)
	}
}

func TestCountermeasureDefeatsLANAttack(t *testing.T) {
	// With Always-Delay (content-specific γ_C) on R and private content,
	// the adversary's accuracy collapses toward a coin flip.
	cfg := ScenarioConfig{
		Seed:        5,
		Objects:     60,
		Runs:        3,
		MarkPrivate: true,
		Manager: func(*netsim.Simulator) core.CacheManager {
			m, err := core.NewDelayManager(core.NewContentSpecificDelay())
			if err != nil {
				panic(err)
			}
			return m
		},
	}
	res, err := RunLAN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy > 0.75 {
		t.Errorf("accuracy with countermeasure = %g, want ≤ 0.75", res.Accuracy)
	}

	baseline, err := RunLAN(ScenarioConfig{Seed: 5, Objects: 60, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Accuracy-res.Accuracy < 0.2 {
		t.Errorf("countermeasure barely helped: %g → %g", baseline.Accuracy, res.Accuracy)
	}
}

func TestHistograms(t *testing.T) {
	res, err := RunLAN(ScenarioConfig{Seed: 6, Objects: 20, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	hit, miss, err := res.Histograms(16)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Total() != uint64(len(res.Hit)) || miss.Total() != uint64(len(res.Miss)) {
		t.Error("histogram sample counts wrong")
	}
	if hit.Bins() != 16 || miss.Bins() != 16 {
		t.Error("bin count wrong")
	}
}

func TestSegmentSuccessProbability(t *testing.T) {
	if got := SegmentSuccessProbability(0.59, 8); math.Abs(got-0.999) > 0.001 {
		t.Errorf("paper's in-text example: got %g, want ≈ 0.999", got)
	}
	if got := SegmentSuccessProbability(0.59, 1); math.Abs(got-0.59) > 1e-12 {
		t.Errorf("single segment: got %g, want 0.59", got)
	}
	if got := SegmentSuccessProbability(0.5, 0); got != 0 {
		t.Errorf("zero segments: got %g, want 0", got)
	}
	if got := SegmentSuccessProbability(1, 3); got != 1 {
		t.Errorf("certain probe: got %g, want 1", got)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := RunLAN(ScenarioConfig{Seed: 1, Objects: 1, Runs: 1}); err == nil {
		t.Error("single object accepted")
	}
}

func TestDoubleProbeSecondIsHit(t *testing.T) {
	p, err := setUp(netsim.New(20), ScenarioConfig{Objects: 1}, consumerNetwork(lruStore, 0, lanEdge(), 1, lanBackbone()))
	if err != nil {
		t.Fatal(err)
	}
	first, second, err := p.adv.DoubleProbe(p.names[0])
	if err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Errorf("second probe (%v) not faster than first (%v)", second, first)
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// dropAll is a link loss model that drops every packet.
type dropAll struct{}

func (dropAll) Drop(*rand.Rand) bool { return true }

func TestPrimeTimeoutFailsRun(t *testing.T) {
	// The user's link drops everything, so no prime reaches R: the run
	// must fail instead of probing unprimed objects as hits.
	build := func(sim *netsim.Simulator, manager core.CacheManager) (network, error) {
		router, err := fwd.NewRouter(sim, "R", 0, manager)
		if err != nil {
			return network{}, err
		}
		user, err := hostPath(sim, "U", 0, router, netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond), Loss: dropAll{}})
		if err != nil {
			return network{}, err
		}
		adv, err := hostPath(sim, "A", 0, router, lanEdge())
		if err != nil {
			return network{}, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return network{}, err
		}
		return network{user: user, adv: adv, producer: pHost}, fwd.Chain(sim, []*fwd.Forwarder{router, pHost}, lanBackbone(), "/p")
	}
	res, err := runMissPrimeHit("lossy", ScenarioConfig{Seed: 1, Objects: 4, Runs: 1}, build)
	if err == nil {
		t.Fatalf("got %d hit samples from a user that never primed R, want an error", len(res.Hit))
	}
	if !errors.Is(err, ErrProbeFailed) || !strings.Contains(err.Error(), "prime 2") {
		t.Errorf("err = %v, want the first prime to fail with ErrProbeFailed", err)
	}
}
