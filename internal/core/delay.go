package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

// DelayStrategy chooses the artificial delay a consumer-facing router
// adds before answering a private cache hit (Section V-B). All three
// strategies from the paper are implemented.
type DelayStrategy interface {
	// HitDelay returns the artificial delay for a cache hit on entry.
	HitDelay(entry *cache.Entry, now time.Duration) time.Duration
	// Name identifies the strategy in experiment output.
	Name() string
}

// ConstantDelay waits a fixed γ on every private cache hit. Setting γ too
// high penalizes nearby content; content whose real fetch delay exceeds γ
// loses privacy — the paper's motivation for the alternatives below.
type ConstantDelay struct {
	gamma time.Duration
}

var _ DelayStrategy = (*ConstantDelay)(nil)

// NewConstantDelay builds the strategy; γ must be positive.
func NewConstantDelay(gamma time.Duration) (*ConstantDelay, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("core: constant delay γ=%v must be positive", gamma)
	}
	return &ConstantDelay{gamma: gamma}, nil
}

// HitDelay implements DelayStrategy.
func (c *ConstantDelay) HitDelay(*cache.Entry, time.Duration) time.Duration { return c.gamma }

// Name implements DelayStrategy.
func (c *ConstantDelay) Name() string { return "constant" }

// Gamma returns the configured delay.
func (c *ConstantDelay) Gamma() time.Duration { return c.gamma }

// ContentSpecificDelay replays each content's original
// interest-in→content-out delay γ_C: a hit looks exactly like the first
// fetch did. The paper calls this "obviously the safer choice for
// privacy".
type ContentSpecificDelay struct{}

var _ DelayStrategy = (*ContentSpecificDelay)(nil)

// NewContentSpecificDelay builds the strategy.
func NewContentSpecificDelay() *ContentSpecificDelay { return &ContentSpecificDelay{} }

// HitDelay implements DelayStrategy.
func (*ContentSpecificDelay) HitDelay(entry *cache.Entry, _ time.Duration) time.Duration {
	return entry.FetchDelay
}

// Name implements DelayStrategy.
func (*ContentSpecificDelay) Name() string { return "content-specific" }

// DynamicDelay mimics in-network caching of popular content: the
// artificial delay starts at the content's real fetch delay γ_C and decays
// exponentially in the number of served requests — as popularity grows, a
// real deployment would likely have the content cached nearby anyway. It
// never drops below Floor, the real delay of content two hops from the
// adversary (the constraint Section V-B states for Definition IV.2).
type DynamicDelay struct {
	floor    time.Duration
	halfLife float64
}

var _ DelayStrategy = (*DynamicDelay)(nil)

// NewDynamicDelay builds the strategy. floor is the two-hop delay bound;
// halfLife is the request count after which the extra delay halves.
func NewDynamicDelay(floor time.Duration, halfLife float64) (*DynamicDelay, error) {
	if floor <= 0 {
		return nil, fmt.Errorf("core: dynamic delay floor %v must be positive", floor)
	}
	if halfLife <= 0 {
		return nil, fmt.Errorf("core: dynamic delay half-life %g must be positive", halfLife)
	}
	return &DynamicDelay{floor: floor, halfLife: halfLife}, nil
}

// HitDelay implements DelayStrategy.
func (d *DynamicDelay) HitDelay(entry *cache.Entry, _ time.Duration) time.Duration {
	base := entry.FetchDelay
	if base < d.floor {
		base = d.floor
	}
	extra := float64(base - d.floor)
	decay := math.Exp2(-float64(entry.ForwardCount) / d.halfLife)
	return d.floor + time.Duration(extra*decay)
}

// Name implements DelayStrategy.
func (*DynamicDelay) Name() string { return "dynamic" }

// Floor returns the configured two-hop delay bound.
func (d *DynamicDelay) Floor() time.Duration { return d.floor }

// DelayManager always disguises private cache hits behind an artificial
// delay chosen by its strategy ("Always Delay Private Content" in the
// Section VII evaluation, with the strategy selecting γ). Non-private
// hits are served immediately. This manager achieves perfect privacy in
// the sense of Definition IV.2 because its responses to private content
// are distributed identically whether or not the content is cached.
type DelayManager struct {
	strategy DelayStrategy
}

var _ CacheManager = (*DelayManager)(nil)

// NewDelayManager builds the manager; strategy must be non-nil.
func NewDelayManager(strategy DelayStrategy) (*DelayManager, error) {
	if strategy == nil {
		return nil, errors.New("core: delay manager requires a strategy")
	}
	return &DelayManager{strategy: strategy}, nil
}

// OnCacheHit implements CacheManager.
func (m *DelayManager) OnCacheHit(entry *cache.Entry, interest *ndn.Interest, now time.Duration) Decision {
	entry.ForwardCount++
	if !EffectivePrivacy(entry, interest) {
		return serveNow()
	}
	return Decision{Action: ActionDelayedServe, Delay: m.strategy.HitDelay(entry, now)}
}

// OnContentCached implements CacheManager.
func (*DelayManager) OnContentCached(*cache.Entry, time.Duration, time.Duration) {}

// Name implements CacheManager.
func (m *DelayManager) Name() string { return "always-delay/" + m.strategy.Name() }
