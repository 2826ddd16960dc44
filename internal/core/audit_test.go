package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestAuditValidation(t *testing.T) {
	valid := AuditConfig{
		Build:  func(*rand.Rand) (CacheManager, error) { return NewNoPrivacy(), nil },
		Probes: 1, Trials: 1,
	}
	bad := []func(*AuditConfig){
		func(c *AuditConfig) { c.Build = nil },
		func(c *AuditConfig) { c.Probes = 0 },
		func(c *AuditConfig) { c.Trials = 0 },
	}
	for i, mutate := range bad {
		cfg := valid
		mutate(&cfg)
		if _, err := Audit(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAuditNoPrivacyFullyDistinguishable(t *testing.T) {
	out, err := Audit(AuditConfig{
		Build:         func(*rand.Rand) (CacheManager, error) { return NewNoPrivacy(), nil },
		PriorRequests: 1,
		Probes:        3,
		Trials:        50,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// S0 always yields "MHH", S1 always "HHH": disjoint supports, δ = 2
	// at any ε.
	if d := out.DeltaAt(10); math.Abs(d-2) > 1e-9 {
		t.Errorf("NoPrivacy empirical δ = %g, want 2 (fully distinguishable)", d)
	}
	if _, feasible := out.EpsilonAt(0.05); feasible {
		t.Error("NoPrivacy reported feasible at δ=0.05")
	}
	if !strings.Contains(out.Render(), "privacy audit") {
		t.Error("Render missing header")
	}
}

func TestAuditDelayManagerPerfectlyPrivate(t *testing.T) {
	out, err := Audit(AuditConfig{
		Build: func(*rand.Rand) (CacheManager, error) {
			return NewDelayManager(NewContentSpecificDelay())
		},
		PriorRequests: 5,
		Probes:        4,
		Trials:        50,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every probe looks miss-like in both states: (0, 0)-indistinguishable
	// — the empirical counterpart of Definition IV.2.
	if d := out.DeltaAt(0); d != 0 {
		t.Errorf("DelayManager empirical δ = %g, want 0 (perfect privacy)", d)
	}
}

func TestAuditDelayManagerStrongAdversary(t *testing.T) {
	// If the adversary could recognize artificial delays as such
	// (DistinguishDelays), always-delay would be fully distinguishable:
	// S0 shows a real miss first, S1 shows delays throughout. This is
	// why the artificial delay must be indistinguishable from real miss
	// latency — the premise the paper's Section V-B strategies satisfy.
	out, err := Audit(AuditConfig{
		Build: func(*rand.Rand) (CacheManager, error) {
			return NewDelayManager(NewContentSpecificDelay())
		},
		PriorRequests:     1,
		Probes:            2,
		Trials:            50,
		Seed:              3,
		DistinguishDelays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := out.DeltaAt(0); math.Abs(d-2) > 1e-9 {
		t.Errorf("strong-adversary δ = %g, want 2", d)
	}
}

func TestAuditUniformRandomCacheMatchesTheorem(t *testing.T) {
	const (
		domain = 20
		x      = 2
		trials = 30000
	)
	out, err := Audit(AuditConfig{
		Build: func(rng *rand.Rand) (CacheManager, error) {
			dist, err := NewUniformK(domain)
			if err != nil {
				return nil, err
			}
			return NewRandomCache(dist, rng)
		},
		PriorRequests: x,
		Probes:        domain + int(x) + 2, // long enough to see every prefix length
		Trials:        trials,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem VI.1: δ = 2x/K = 0.2 at ε = 0. The ε slack of 0.1 absorbs
	// Monte-Carlo ratio noise on theoretically-equal outcomes.
	want := 2.0 * x / domain
	if got := out.DeltaAt(0.1); math.Abs(got-want) > 0.03 {
		t.Errorf("empirical δ = %g, theorem δ = %g", got, want)
	}
}

func TestAuditGeometricRandomCacheBoundedByTheorem(t *testing.T) {
	const (
		alpha  = 0.85
		domain = 30
		x      = 3
		trials = 20000
	)
	out, err := Audit(AuditConfig{
		Build: func(rng *rand.Rand) (CacheManager, error) {
			dist, err := NewGeometricK(alpha, domain)
			if err != nil {
				return nil, err
			}
			return NewRandomCache(dist, rng)
		},
		PriorRequests: x,
		Probes:        domain + int(x) + 2,
		Trials:        trials,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := ExponentialPrivacy(x, alpha, domain)
	// Allow Monte-Carlo noise: ε slack 0.1 on the ratio bound, 0.05 on δ.
	if got := out.DeltaAt(bound.Epsilon + 0.1); got > bound.Delta+0.05 {
		t.Errorf("empirical δ = %g exceeds theorem δ = %g at ε = %g", got, bound.Delta, bound.Epsilon)
	}
}

// The seed reaches the managers Audit builds: one seed gives the same
// outcome distributions twice, another seed different ones.
func TestAuditSeedReachesManager(t *testing.T) {
	audit := func(seed int64) [2]Distribution {
		out, err := Audit(AuditConfig{
			Build: func(rng *rand.Rand) (CacheManager, error) {
				dist, err := NewUniformK(20)
				if err != nil {
					return nil, err
				}
				return NewRandomCache(dist, rng)
			},
			PriorRequests: 2,
			Probes:        24,
			Trials:        200,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return [2]Distribution{out.Baseline, out.Prior}
	}
	one, again, two := audit(1), audit(1), audit(2)
	if !reflect.DeepEqual(one, again) {
		t.Errorf("seed 1 audited twice gave %v, then %v", one, again)
	}
	if reflect.DeepEqual(one, two) {
		t.Errorf("seeds 1 and 2 gave the same outcomes %v: the seed does not reach the manager", one)
	}
}

func TestAuditBuilderErrorPropagates(t *testing.T) {
	_, err := Audit(AuditConfig{
		Build: func(*rand.Rand) (CacheManager, error) {
			return nil, errors.New("builder failed")
		},
		Probes: 1, Trials: 1,
	})
	if err == nil {
		t.Error("builder error swallowed")
	}
}
