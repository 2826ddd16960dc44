package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistributionNormalize(t *testing.T) {
	d := Distribution{"a": 2, "b": 6}
	d.Normalize()
	if math.Abs(d["a"]-0.25) > 1e-12 || math.Abs(d["b"]-0.75) > 1e-12 {
		t.Errorf("Normalize = %v", d)
	}
	empty := Distribution{}
	empty.Normalize() // must not panic or divide by zero
	if m := empty.TotalMass(); m != 0 {
		t.Errorf("empty mass = %g", m)
	}
}

func TestMinDeltaIdenticalDistributions(t *testing.T) {
	d := Distribution{"x": 0.5, "y": 0.5}
	if got := MinDeltaForEpsilon(d, d, 0); got != 0 {
		t.Errorf("δ of identical distributions = %g, want 0", got)
	}
}

func TestMinDeltaDisjointDistributions(t *testing.T) {
	d1 := Distribution{"x": 1}
	d2 := Distribution{"y": 1}
	if got := MinDeltaForEpsilon(d1, d2, 10); math.Abs(got-2) > 1e-12 {
		t.Errorf("δ of disjoint distributions = %g, want 2", got)
	}
}

func TestMinDeltaRatioBounded(t *testing.T) {
	d1 := Distribution{"x": 0.6, "y": 0.4}
	d2 := Distribution{"x": 0.4, "y": 0.6}
	// Ratios are 1.5 and 0.66..; ε = ln(1.5) bounds them.
	if got := MinDeltaForEpsilon(d1, d2, math.Log(1.5)+1e-9); got != 0 {
		t.Errorf("δ = %g, want 0 at ε = ln 1.5", got)
	}
	// Below that ε both outcomes are bad.
	if got := MinDeltaForEpsilon(d1, d2, math.Log(1.4)); math.Abs(got-2) > 1e-12 {
		t.Errorf("δ = %g, want 2 at ε = ln 1.4", got)
	}
}

// Definition IV.1: d1 and d2 are (ε, δ)-indistinguishable exactly when
// MinDeltaForEpsilon(d1, d2, ε) ≤ δ.
func TestIndistinguishable(t *testing.T) {
	d1 := Distribution{"x": 0.6, "y": 0.4}
	d2 := Distribution{"x": 0.4, "y": 0.6}
	if got := MinDeltaForEpsilon(d1, d2, math.Log(1.5)+1e-9); got > 0 {
		t.Errorf("δ = %g at ε = ln 1.5: should be (ln 1.5, 0)-indistinguishable", got)
	}
	if got := MinDeltaForEpsilon(d1, d2, 0.1); got <= 0.5 {
		t.Errorf("δ = %g at ε = 0.1: should not be (0.1, 0.5)-indistinguishable", got)
	}
}

func TestMinEpsilonForDelta(t *testing.T) {
	d1 := Distribution{"x": 0.6, "y": 0.4}
	d2 := Distribution{"x": 0.4, "y": 0.6}
	eps, feasible := MinEpsilonForDelta(d1, d2, 0)
	if !feasible {
		t.Fatal("infeasible")
	}
	if want := math.Log(1.5); math.Abs(eps-want) > 1e-9 {
		t.Errorf("ε = %g, want ln 1.5 = %g", eps, want)
	}
	// With δ budget ≥ total bad mass, ε can drop to cover only one pair.
	eps2, feasible2 := MinEpsilonForDelta(d1, d2, 2)
	if !feasible2 || eps2 != 0 {
		t.Errorf("full budget: ε = %g, %t; want 0, true", eps2, feasible2)
	}
}

func TestMinEpsilonInfeasible(t *testing.T) {
	d1 := Distribution{"x": 1}
	d2 := Distribution{"y": 1}
	if _, feasible := MinEpsilonForDelta(d1, d2, 0.5); feasible {
		t.Error("disjoint distributions reported feasible at δ=0.5")
	}
}

func TestProbeOutcomeDistUniformStateS0(t *testing.T) {
	// K = 10, fresh state, t = 15 probes: leading misses = r+1, each
	// with probability 1/10.
	u := mustUniform(t, 10)
	d := ProbeOutcomeDist(u, 0, 15)
	for m := uint64(1); m <= 10; m++ {
		if p := d[ProbeOutcome(m)]; math.Abs(p-0.1) > 1e-9 {
			t.Errorf("P(misses=%d) = %g, want 0.1", m, p)
		}
	}
	if p := d[ProbeOutcome(0)]; p != 0 {
		t.Errorf("P(misses=0) = %g, want 0 (first probe always misses)", p)
	}
	if mass := d.TotalMass(); math.Abs(mass-1) > 1e-9 {
		t.Errorf("mass = %g", mass)
	}
}

func TestProbeOutcomeDistUniformStateSx(t *testing.T) {
	// x = 2 prior requests: thresholds 0 and 1 are exhausted, so
	// misses=0 has probability 2/10 and m ∈ [1, 8] probability 1/10.
	u := mustUniform(t, 10)
	d := ProbeOutcomeDist(u, 2, 15)
	if p := d[ProbeOutcome(0)]; math.Abs(p-0.2) > 1e-9 {
		t.Errorf("P(misses=0) = %g, want 0.2", p)
	}
	for m := uint64(1); m <= 8; m++ {
		if p := d[ProbeOutcome(m)]; math.Abs(p-0.1) > 1e-9 {
			t.Errorf("P(misses=%d) = %g, want 0.1", m, p)
		}
	}
}

func TestTheoremVI1NumericallyExact(t *testing.T) {
	// Verify Theorem VI.1 end to end: for Uniform-Random-Cache with
	// domain K, states S0 and S1 (x ≤ k prior requests) are (0, 2x/K)-
	// indistinguishable, and the bound is tight.
	const domain = 50
	u := mustUniform(t, domain)
	for _, x := range []uint64{1, 2, 5} {
		d0 := ProbeOutcomeDist(u, 0, domain+10)
		dx := ProbeOutcomeDist(u, x, domain+10)
		got := MinDeltaForEpsilon(d0, dx, 0)
		want := 2 * float64(x) / domain
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("x=%d: numeric δ = %g, theorem δ = %g", x, got, want)
		}
		// And the theorem's claim holds as a bound for k ≥ x.
		bound := UniformPrivacy(5, domain)
		if x <= 5 && got > bound.Delta+1e-9 {
			t.Errorf("x=%d: numeric δ %g exceeds theorem bound %g", x, got, bound.Delta)
		}
	}
}

func TestTheoremVI3NumericallyBounded(t *testing.T) {
	// Verify Theorem VI.3: for Exponential-Random-Cache, the numeric
	// minimal δ at ε = −k·ln α never exceeds the theorem's δ.
	const domain = 60
	alpha := 0.9
	g := mustGeometric(t, alpha, domain)
	for _, x := range []uint64{1, 3, 5} {
		d0 := ProbeOutcomeDist(g, 0, domain+10)
		dx := ProbeOutcomeDist(g, x, domain+10)
		bound := ExponentialPrivacy(x, alpha, domain)
		got := MinDeltaForEpsilon(d0, dx, bound.Epsilon)
		if got > bound.Delta+1e-9 {
			t.Errorf("x=%d: numeric δ = %g exceeds theorem δ = %g", x, got, bound.Delta)
		}
		// The ratio structure: within the overlap, consecutive ratios
		// are exactly α^x, so ε below −x·ln α forces extra δ.
		tighterEps := -float64(x)*math.Log(alpha) - 0.01
		if tight := MinDeltaForEpsilon(d0, dx, tighterEps); tight <= got+1e-12 {
			t.Errorf("x=%d: reducing ε did not increase δ (%g ≤ %g)", x, tight, got)
		}
	}
}

func TestNaiveSchemeIsNotPrivate(t *testing.T) {
	// The Section VI "naïve approach": deterministic threshold k means
	// the probe outcome reveals the prior request count exactly — the
	// distributions for S0 and S1 are disjoint and δ = 2 at any ε.
	nk := NewNaiveK(5)
	d0 := ProbeOutcomeDist(nk, 0, 10)
	d1 := ProbeOutcomeDist(nk, 2, 10)
	if got := MinDeltaForEpsilon(d0, d1, 100); math.Abs(got-2) > 1e-9 {
		t.Errorf("naive δ = %g, want 2 (fully distinguishable)", got)
	}
}

func TestUnboundedGeometricProbeDist(t *testing.T) {
	g := mustUnbounded(t, 0.8)
	d := ProbeOutcomeDist(g, 0, 20)
	if mass := d.TotalMass(); math.Abs(mass-1) > 1e-9 {
		t.Errorf("mass = %g", mass)
	}
	// P(misses=1) = P(k=0) = 0.2.
	if p := d[ProbeOutcome(1)]; math.Abs(p-0.2) > 1e-9 {
		t.Errorf("P(misses=1) = %g, want 0.2", p)
	}
}

// Property: MinDeltaForEpsilon is symmetric in its two distributions and
// monotone nonincreasing in ε.
func TestMinDeltaProperties(t *testing.T) {
	f := func(ps [6]uint8, eps1, eps2 float64) bool {
		d1 := Distribution{"a": float64(ps[0]) + 1, "b": float64(ps[1]) + 1, "c": float64(ps[2])}
		d2 := Distribution{"a": float64(ps[3]) + 1, "b": float64(ps[4]) + 1, "c": float64(ps[5])}
		d1.Normalize()
		d2.Normalize()
		e1 := math.Abs(eps1)
		e2 := math.Abs(eps2)
		if math.IsNaN(e1) || math.IsNaN(e2) || math.IsInf(e1, 0) || math.IsInf(e2, 0) {
			return true
		}
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		if MinDeltaForEpsilon(d1, d2, e1) != MinDeltaForEpsilon(d2, d1, e1) {
			return false
		}
		return MinDeltaForEpsilon(d1, d2, e2) <= MinDeltaForEpsilon(d1, d2, e1)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
