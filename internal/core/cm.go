// Package core implements the paper's primary contribution: privacy-
// preserving cache management for NDN routers.
//
// A CacheManager (the CM of Section IV) sits between a router's Content
// Store and its interest-processing pipeline. On every interest that hits
// cached content, the CM decides whether to reveal the hit, disguise it
// behind an artificial delay (Section V-B), or behave as if the content
// were not cached at all (Section VI's Random-Cache family). The CM can
// hide cache hits but — as the model stipulates — cannot hide cache
// misses.
//
// Implemented managers:
//
//   - NoPrivacy: always serve from cache (the insecure baseline).
//   - DelayManager: always disguise private hits behind a delay chosen by
//     a DelayStrategy (constant γ, content-specific γ_C, or dynamic).
//     Perfectly private per Definition IV.2; bandwidth is unaffected.
//   - NaiveThreshold: the non-private k-threshold scheme of Section VI.
//   - RandomCache: Algorithm 1 with a pluggable distribution for k_C —
//     Uniform-Random-Cache and Exponential-Random-Cache, with the
//     (k, ε, δ)-privacy and utility of Theorems VI.1–VI.4.
//   - GroupedRandomCache: Random-Cache over correlation groups
//     (Section VI, "Addressing Content Correlation").
package core

import (
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
)

// Action says how the router must respond to an interest that matched
// cached content.
type Action int

// Cache-hit handling actions.
const (
	// ActionServe reveals the cache hit: respond immediately.
	ActionServe Action = iota + 1
	// ActionDelayedServe hides the hit behind an artificial delay but
	// still answers from the cache, preserving bandwidth (Section V-B).
	// In utility accounting this counts as a miss: the consumer sees
	// miss-like latency.
	ActionDelayedServe
	// ActionMiss makes the router behave as if the content were not
	// cached: the interest is forwarded upstream (Section VI schemes
	// "generate a cache miss").
	ActionMiss
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionServe:
		return "serve"
	case ActionDelayedServe:
		return "delayed-serve"
	case ActionMiss:
		return "miss"
	default:
		return "unknown"
	}
}

// Decision is a CM's verdict for one interest that hit cached content.
type Decision struct {
	Action Action
	// Delay is the artificial delay for ActionDelayedServe; ignored
	// otherwise.
	Delay time.Duration
}

// serveNow is the unconditional reveal decision.
func serveNow() Decision { return Decision{Action: ActionServe} }

// CacheManager is the CM of the paper's system model.
type CacheManager interface {
	// OnCacheHit is invoked when interest matched the (fresh) cached
	// entry at virtual time now. The CM may mutate the entry's privacy
	// and counter metadata.
	OnCacheHit(entry *cache.Entry, interest *ndn.Interest, now time.Duration) Decision
	// OnContentCached is invoked right after the router caches content
	// it fetched upstream, so the CM can initialize per-entry state.
	// fetchDelay is the interest-in→content-out delay the router just
	// observed (γ_C).
	OnContentCached(entry *cache.Entry, fetchDelay time.Duration, now time.Duration)
	// Name identifies the manager in experiment output.
	Name() string
}

// Observable is implemented by cache managers with stage outcomes of
// their own: the Random-Cache family's threshold coin, recorded as a
// cm_coin event and a span under the triggering packet. The forwarder
// and the trace replayer attach their node's tap.
type Observable interface {
	Attach(tap *telemetry.Tap)
}

// NoPrivacy is the baseline CM: every cache hit is revealed immediately.
type NoPrivacy struct{}

var _ CacheManager = (*NoPrivacy)(nil)

// NewNoPrivacy returns the baseline manager.
func NewNoPrivacy() *NoPrivacy { return &NoPrivacy{} }

// OnCacheHit implements CacheManager.
func (*NoPrivacy) OnCacheHit(entry *cache.Entry, _ *ndn.Interest, _ time.Duration) Decision {
	entry.ForwardCount++
	return serveNow()
}

// OnContentCached implements CacheManager.
func (*NoPrivacy) OnContentCached(*cache.Entry, time.Duration, time.Duration) {}

// Name implements CacheManager.
func (*NoPrivacy) Name() string { return "no-privacy" }
