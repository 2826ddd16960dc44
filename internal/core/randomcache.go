package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// KDistribution is the distribution of the per-content threshold k_C in
// Algorithm 1. The first k_C+1 requests for a content are answered as
// cache misses; later requests reveal the hit.
type KDistribution interface {
	// Draw samples one threshold.
	Draw(rng *rand.Rand) uint64
	// Mean returns E[K], the expected number of disguised requests
	// beyond the first.
	Mean() float64
	// Prob returns Pr(k_C = r), used by the closed-form utility and
	// indistinguishability analysis.
	Prob(r uint64) float64
	// Name identifies the distribution in experiment output.
	Name() string
}

// UniformK is the discrete uniform U(0, K): Pr(k_C = r) = 1/K for
// 0 ≤ r < K. Instantiating Random-Cache with it yields
// Uniform-Random-Cache, which is (k, 0, 2k/K)-private (Theorem VI.1).
type UniformK struct {
	k uint64
}

var _ KDistribution = (*UniformK)(nil)

// NewUniformK builds the distribution; the domain size K must be positive.
func NewUniformK(domainSize uint64) (*UniformK, error) {
	if domainSize == 0 {
		return nil, errors.New("core: uniform K domain must be positive")
	}
	return &UniformK{k: domainSize}, nil
}

// Draw implements KDistribution.
func (u *UniformK) Draw(rng *rand.Rand) uint64 { return uint64(rng.Int63n(int64(u.k))) }

// Mean implements KDistribution.
func (u *UniformK) Mean() float64 { return float64(u.k-1) / 2 }

// Prob implements KDistribution.
func (u *UniformK) Prob(r uint64) float64 {
	if r >= u.k {
		return 0
	}
	return 1 / float64(u.k)
}

// Name implements KDistribution.
func (u *UniformK) Name() string { return fmt.Sprintf("uniform(K=%d)", u.k) }

// DomainSize returns K.
func (u *UniformK) DomainSize() uint64 { return u.k }

// GeometricK is the truncated geometric distribution G̃(α, 0, K−1):
// Pr(k_C = r) = (1−α)·α^r / (1−α^K). Instantiating Random-Cache with it
// yields Exponential-Random-Cache, which is
// (k, −k·ln α, (1−α^k+α^{K−k}−α^K)/(1−α^K))-private (Theorem VI.3).
// A domain size of 0 means the untruncated geometric (K = ∞), the limit
// the paper uses when computing the smallest achievable δ = 1 − α^k.
type GeometricK struct {
	alpha float64
	k     uint64 // 0 = unbounded
}

var _ KDistribution = (*GeometricK)(nil)

// NewGeometricK builds the truncated distribution. Requires 0 < α < 1 and
// K ≥ 1. (α = 1 would be the uniform distribution; use UniformK.)
func NewGeometricK(alpha float64, domainSize uint64) (*GeometricK, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("core: geometric α=%g must be in (0, 1)", alpha)
	}
	if domainSize == 0 {
		return nil, errors.New("core: geometric K domain must be positive; use NewGeometricUnbounded for K=∞")
	}
	return &GeometricK{alpha: alpha, k: domainSize}, nil
}

// NewGeometricUnbounded builds the untruncated geometric (K = ∞).
func NewGeometricUnbounded(alpha float64) (*GeometricK, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("core: geometric α=%g must be in (0, 1)", alpha)
	}
	return &GeometricK{alpha: alpha}, nil
}

// Unbounded reports whether the distribution is untruncated.
func (g *GeometricK) Unbounded() bool { return g.k == 0 }

// Draw implements KDistribution via inverse-CDF sampling.
func (g *GeometricK) Draw(rng *rand.Rand) uint64 {
	u := rng.Float64()
	// CDF(r) = (1 − α^{r+1}) / (1 − α^K); smallest r with CDF(r) ≥ u.
	norm := 1.0
	if !g.Unbounded() {
		norm = 1 - math.Pow(g.alpha, float64(g.k))
	}
	target := 1 - u*norm // = α^{r+1} at the boundary
	if target <= 0 {
		if g.Unbounded() {
			return 1 << 62 // probability-zero edge; effectively never hit
		}
		return g.k - 1
	}
	r := math.Ceil(math.Log(target)/math.Log(g.alpha)) - 1
	if r < 0 {
		r = 0
	}
	if !g.Unbounded() && r > float64(g.k-1) {
		r = float64(g.k - 1)
	}
	return uint64(r)
}

// Mean implements KDistribution using the closed form
// E = α(1 − K·α^{K−1} + (K−1)·α^K) / ((1−α)(1−α^K)), which reduces to
// α/(1−α) as K → ∞.
func (g *GeometricK) Mean() float64 {
	a := g.alpha
	if g.Unbounded() {
		return a / (1 - a)
	}
	k := float64(g.k)
	num := a * (1 - k*math.Pow(a, k-1) + (k-1)*math.Pow(a, k))
	den := (1 - a) * (1 - math.Pow(a, k))
	return num / den
}

// Name implements KDistribution.
func (g *GeometricK) Name() string {
	if g.Unbounded() {
		return fmt.Sprintf("geometric(α=%g,K=inf)", g.alpha)
	}
	return fmt.Sprintf("geometric(α=%g,K=%d)", g.alpha, g.k)
}

// Alpha returns α.
func (g *GeometricK) Alpha() float64 { return g.alpha }

// DomainSize returns K, or 0 when unbounded.
func (g *GeometricK) DomainSize() uint64 { return g.k }

// Prob implements KDistribution.
func (g *GeometricK) Prob(r uint64) float64 {
	if !g.Unbounded() && r >= g.k {
		return 0
	}
	norm := 1.0
	if !g.Unbounded() {
		norm = 1 - math.Pow(g.alpha, float64(g.k))
	}
	return (1 - g.alpha) * math.Pow(g.alpha, float64(r)) / norm
}

// NaiveK is the deterministic threshold of the "Non-Private Naïve
// Approach" in Section VI: always k. An adversary who knows k can count
// its own requests until the first hit and learn exactly how many other
// requests preceded them — the scheme exists as the insecure baseline.
type NaiveK struct {
	k uint64
}

var _ KDistribution = (*NaiveK)(nil)

// NewNaiveK builds the deterministic threshold.
func NewNaiveK(k uint64) *NaiveK { return &NaiveK{k: k} }

// Draw implements KDistribution.
func (n *NaiveK) Draw(*rand.Rand) uint64 { return n.k }

// Mean implements KDistribution.
func (n *NaiveK) Mean() float64 { return float64(n.k) }

// Prob implements KDistribution.
func (n *NaiveK) Prob(r uint64) float64 {
	if r == n.k {
		return 1
	}
	return 0
}

// Name implements KDistribution.
func (n *NaiveK) Name() string { return fmt.Sprintf("naive(k=%d)", n.k) }

// RandomCache implements Algorithm 1. For each private content the
// manager draws a threshold k_C from its distribution when the content is
// first cached; the first k_C requests after the initial fetch are
// disguised as cache misses (the interest is forwarded upstream), and
// later requests reveal the hit. State lives on the cache entry and
// therefore resets when the content is evicted and re-fetched — at which
// point a fresh k_C is drawn, exactly as Algorithm 1 re-initializes
// content not in T.
type RandomCache struct {
	dist KDistribution
	rng  *rand.Rand
	tap  *telemetry.Tap
}

var _ CacheManager = (*RandomCache)(nil)

// NewRandomCache builds the manager. Both arguments are required.
func NewRandomCache(dist KDistribution, rng *rand.Rand) (*RandomCache, error) {
	if dist == nil {
		return nil, errors.New("core: random cache requires a K distribution")
	}
	if rng == nil {
		return nil, errors.New("core: random cache requires an RNG")
	}
	return &RandomCache{dist: dist, rng: rng}, nil
}

// Attach implements Observable: every fresh threshold draw is recorded.
func (m *RandomCache) Attach(tap *telemetry.Tap) { m.tap = tap }

// OnCacheHit implements CacheManager.
func (m *RandomCache) OnCacheHit(entry *cache.Entry, interest *ndn.Interest, now time.Duration) Decision {
	entry.ForwardCount++
	if !EffectivePrivacy(entry, interest) {
		return serveNow()
	}
	m.ensureThreshold(entry, now, span.Context{Trace: interest.TraceID, Span: interest.SpanID})
	entry.Counter++
	if entry.Counter <= entry.Threshold {
		return Decision{Action: ActionMiss}
	}
	return serveNow()
}

// OnContentCached implements CacheManager.
func (m *RandomCache) OnContentCached(entry *cache.Entry, _ time.Duration, now time.Duration) {
	// The initial fetch is Algorithm 1's unconditional first miss; it
	// initializes c_C = 0 and draws k_C. Re-fetches caused by disguised
	// misses land on the same live entry and must not redraw. The coin
	// span parents under the hop that fetched the content.
	m.ensureThreshold(entry, now, entry.Fetch)
}

func (m *RandomCache) ensureThreshold(entry *cache.Entry, now time.Duration, parent span.Context) {
	if entry.ThresholdSet {
		return
	}
	entry.Counter = 0
	entry.Threshold = m.dist.Draw(m.rng)
	entry.ThresholdSet = true
	coin := telemetry.Rec{Stage: telemetry.StageCoin, Name: &entry.Data.Name,
		T0: int64(now), T1: int64(now), Value: entry.Threshold, Parent: parent}
	m.tap.Record(&coin)
}

// Name implements CacheManager.
func (m *RandomCache) Name() string { return "random-cache/" + m.dist.Name() }

// Distribution exposes the threshold distribution for analysis.
func (m *RandomCache) Distribution() KDistribution { return m.dist }
