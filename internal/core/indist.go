package core

import (
	"fmt"
	"math"
	"sort"
)

// (ε, δ)-probabilistic indistinguishability (Definition IV.1) evaluated
// exactly over finite output distributions, plus the exact output
// distribution of Algorithm 1 under adversarial probing — the machinery
// behind verifying Theorems VI.1 and VI.3 numerically instead of taking
// them on faith.

// Distribution is a probability mass function over named outcomes.
type Distribution map[string]float64

// Normalize scales the distribution to total mass 1; it is a no-op on an
// empty distribution.
func (d Distribution) Normalize() {
	total := 0.0
	for _, p := range d {
		total += p
	}
	if total == 0 {
		return
	}
	for k := range d {
		d[k] /= total
	}
}

// TotalMass returns the sum of all outcome probabilities.
func (d Distribution) TotalMass() float64 {
	total := 0.0
	for _, p := range d {
		total += p
	}
	return total
}

// MinDeltaForEpsilon returns the smallest δ such that d1 and d2 are
// (ε, δ)-probabilistically indistinguishable: outcomes whose probability
// ratio can be bounded by e^ε go to Ω1, every other outcome O contributes
// Pr(D1=O) + Pr(D2=O) to δ.
func MinDeltaForEpsilon(d1, d2 Distribution, eps float64) float64 {
	bound := math.Exp(eps)
	delta := 0.0
	for _, o := range unionOutcomes(d1, d2) {
		p1, p2 := d1[o], d2[o]
		if ratioBounded(p1, p2, bound) {
			continue
		}
		delta += p1 + p2
	}
	return delta
}

// MinEpsilonForDelta returns the smallest ε for which
// MinDeltaForEpsilon(d1, d2, ε) ≤ δ. Outcomes with one-sided support can
// never be ratio-bounded and must fit inside the δ budget; among the
// rest, the budget absorbs the worst ratios first, and ε is set by the
// worst ratio left in Ω1. The boolean is false when no ε suffices.
func MinEpsilonForDelta(d1, d2 Distribution, delta float64) (float64, bool) {
	type ratioMass struct {
		logRatio float64
		mass     float64
	}
	var candidates []ratioMass
	forcedDelta := 0.0 // outcomes that can never be ratio-bounded
	for _, o := range unionOutcomes(d1, d2) {
		p1, p2 := d1[o], d2[o]
		switch {
		case p1 > 0 && p2 > 0:
			candidates = append(candidates, ratioMass{
				logRatio: math.Abs(math.Log(p1 / p2)),
				mass:     p1 + p2,
			})
		case p1 > 0 || p2 > 0:
			forcedDelta += p1 + p2
		}
	}
	if forcedDelta > delta+1e-12 {
		return 0, false
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].logRatio > candidates[j].logRatio })
	used := forcedDelta
	for i, cand := range candidates {
		if used+cand.mass <= delta+1e-12 {
			used += cand.mass
			continue
		}
		// This outcome stays in Ω1 and dictates ε; so do all smaller
		// ratios after it.
		return candidates[i].logRatio, true
	}
	return 0, true
}

func ratioBounded(p1, p2, bound float64) bool {
	switch {
	case p1 == 0 && p2 == 0:
		return true
	case p1 == 0 || p2 == 0:
		return false
	default:
		r := p1 / p2
		return r <= bound+1e-12 && r >= 1/bound-1e-12
	}
}

func unionOutcomes(d1, d2 Distribution) []string {
	seen := make(map[string]struct{}, len(d1)+len(d2))
	for o := range d1 {
		seen[o] = struct{}{}
	}
	for o := range d2 {
		seen[o] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// ProbeOutcome names the observable result of t consecutive probes: the
// number of leading cache misses before the first hit. (Algorithm 1's
// output for one content is always a run of misses followed by a run of
// hits, so this integer is a sufficient statistic.)
func ProbeOutcome(leadingMisses uint64) string {
	return fmt.Sprintf("misses=%d", leadingMisses)
}

// probeTailCutoff bounds the enumeration of unbounded geometric
// distributions; mass beyond the cutoff is folded into the last outcome.
const probeTailCutoff = 1e-12

// ProbeOutcomeDist returns the exact distribution of Q^t_S(C): the
// adversary issues t consecutive interests for content C whose router
// state already counts priorRequests. It enumerates the threshold r with
// its probability under dist and computes the resulting number of leading
// misses:
//
//   - priorRequests == 0 (state S0): the first probe is the initializing
//     miss, so leading misses = min(r+1, t);
//   - priorRequests == x ≥ 1 (state S1): the content is cached with
//     counter x−1, so leading misses = clamp(r−(x−1), 0, t).
func ProbeOutcomeDist(dist KDistribution, priorRequests uint64, probes int) Distribution {
	out := make(Distribution)
	accumulated := 0.0
	// Enumerate thresholds until (nearly) all mass is covered. Bounded
	// distributions exhaust their support; the unbounded geometric tail
	// shrinks below the cutoff. Any leftover tail corresponds to very
	// large thresholds, which produce t straight misses.
	for r := uint64(0); accumulated < 1-probeTailCutoff && r < 1<<22; r++ {
		p := dist.Prob(r)
		if p == 0 {
			continue
		}
		out[ProbeOutcome(leadingMisses(r, priorRequests, probes))] += p
		accumulated += p
	}
	if tail := 1 - accumulated; tail > 0 {
		out[ProbeOutcome(uint64(probes))] += tail
	}
	out.Normalize()
	return out
}

func leadingMisses(r, prior uint64, probes int) uint64 {
	t := uint64(probes)
	if prior == 0 {
		m := r + 1
		if m > t {
			m = t
		}
		return m
	}
	consumed := prior - 1 // counter value before the probes start
	if r <= consumed {
		return 0
	}
	m := r - consumed
	if m > t {
		m = t
	}
	return m
}
