package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"ndnprivacy/internal/core"
)

// The privacy audit plays the Definition IV.1 adversary experiment
// against fresh instances of four cache managers and reports the
// empirical δ at ε ≈ 0 beside what the Section VI theorems predict: the
// audit needs no theorem, only a builder, so it checks the framework
// against the cases where a theorem exists.

// PrivacyAuditRow is one manager's empirical δ.
type PrivacyAuditRow struct {
	Manager string
	Delta   float64 // empirical δ at ε = 0.1, a slack for Monte-Carlo ratio noise
	Expect  string
}

// PrivacyAuditResult holds the audit of every manager.
type PrivacyAuditResult struct {
	Domain        uint64 // K of the uniform Random-Cache
	PriorRequests uint64 // x: requests for the audited content in state S1
	Trials        int    // per state
	Rows          []PrivacyAuditRow
}

// RunPrivacyAudit audits no-privacy, content-specific always-delay,
// Uniform-Random-Cache (K = 20) and the naive k = 5 threshold, each over
// 20 000 trials per state with x = 2.
func RunPrivacyAudit(seed int64) (*PrivacyAuditResult, error) {
	const domain, x = 20, 2
	out := &PrivacyAuditResult{Domain: domain, PriorRequests: x, Trials: 20000}
	audits := []struct {
		name, expect string
		build        func(*rand.Rand) (core.CacheManager, error)
	}{
		{"no-privacy", "fully distinguishable (δ = 2)",
			func(*rand.Rand) (core.CacheManager, error) { return core.NewNoPrivacy(), nil }},
		{"always-delay (γ_C)", "perfect privacy (δ = 0), Definition IV.2",
			func(*rand.Rand) (core.CacheManager, error) {
				return core.NewDelayManager(core.NewContentSpecificDelay())
			}},
		{fmt.Sprintf("uniform-random-cache K=%d", domain), fmt.Sprintf("Theorem VI.1: δ = 2x/K = %.3f", 2.0*x/domain),
			func(rng *rand.Rand) (core.CacheManager, error) {
				dist, err := core.NewUniformK(domain)
				if err != nil {
					return nil, err
				}
				return core.NewRandomCache(dist, rng)
			}},
		{"naive threshold k=5", "Section VI: non-private",
			func(rng *rand.Rand) (core.CacheManager, error) { return core.NewRandomCache(core.NewNaiveK(5), rng) }},
	}
	for _, a := range audits {
		outcome, err := core.Audit(core.AuditConfig{Build: a.build, PriorRequests: x, Probes: domain + x + 2,
			Trials: out.Trials, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("audit %s: %w", a.name, err)
		}
		out.Rows = append(out.Rows, PrivacyAuditRow{Manager: a.name, Delta: outcome.DeltaAt(0.1), Expect: a.expect})
	}
	return out, nil
}

// Render formats the audit.
func (r *PrivacyAuditResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Empirical privacy audit — Definition IV.1, x=%d, %d trials per state ===\n", r.PriorRequests, r.Trials)
	fmt.Fprintf(&b, "%-28s    δ (ε≈0)  expected\n", "manager")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s  %9.4f  %s\n", row.Manager, row.Delta, row.Expect)
	}
	return b.String()
}
