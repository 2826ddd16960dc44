package attack

import (
	"errors"
	"testing"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/rt"
)

func TestNewProberRequiresNetsim(t *testing.T) {
	exec := rt.New(1)
	defer exec.Close()
	host, err := fwd.New(fwd.Config{Name: "h", Sim: exec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProber(host); err == nil {
		t.Error("real-time host accepted by the synchronous prober")
	}
}

func TestProbeFailsOnUnroutableName(t *testing.T) {
	sim := netsim.New(1)
	host, err := fwd.NewBareHost(sim, "A")
	if err != nil {
		t.Fatal(err)
	}
	prober, err := NewProber(host)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prober.Probe(ndn.MustParseName("/nowhere")); !errors.Is(err, ErrProbeFailed) {
		t.Errorf("err = %v, want ErrProbeFailed", err)
	}
}

func TestWANScenarioWithCountermeasure(t *testing.T) {
	// The WAN variant of the countermeasure check: always-delay defeats
	// the multi-hop attack too.
	res, err := RunWAN(ScenarioConfig{
		Seed: 5, Objects: 40, Runs: 2,
		MarkPrivate: true,
		Manager: func(*netsim.Simulator) core.CacheManager {
			m, err := core.NewDelayManager(core.NewContentSpecificDelay())
			if err != nil {
				panic(err)
			}
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy > 0.75 {
		t.Errorf("WAN countermeasure residual accuracy = %g", res.Accuracy)
	}
}

func TestLocalHostScenarioWithCountermeasure(t *testing.T) {
	// Even the sharpest setting (local daemon cache) collapses under
	// always-delay.
	res, err := RunLocalHost(ScenarioConfig{
		Seed: 6, Objects: 40, Runs: 2,
		MarkPrivate: true,
		Manager: func(*netsim.Simulator) core.CacheManager {
			m, err := core.NewDelayManager(core.NewContentSpecificDelay())
			if err != nil {
				panic(err)
			}
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy > 0.75 {
		t.Errorf("local-host countermeasure residual accuracy = %g", res.Accuracy)
	}
}

func TestRandomCacheCountermeasureOnLAN(t *testing.T) {
	// Uniform-Random-Cache with a large domain disguises the first ~K/2
	// probes: a single-probe adversary drops to near-chance.
	res, err := RunLAN(ScenarioConfig{
		Seed: 7, Objects: 40, Runs: 2,
		MarkPrivate: true,
		Manager: func(sim *netsim.Simulator) core.CacheManager {
			dist, err := core.NewUniformK(1000)
			if err != nil {
				panic(err)
			}
			m, err := core.NewRandomCache(dist, sim.Rand())
			if err != nil {
				panic(err)
			}
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy > 0.75 {
		t.Errorf("random-cache residual accuracy = %g", res.Accuracy)
	}
}

func TestProducerScenarioValidation(t *testing.T) {
	if _, err := RunProducerPrivacy(ScenarioConfig{Seed: 1, Objects: 1, Runs: 1}); err == nil {
		t.Error("single object accepted")
	}
	if _, err := RunLocalHost(ScenarioConfig{Seed: 1, Objects: 1, Runs: 1}); err == nil {
		t.Error("single object accepted")
	}
}
