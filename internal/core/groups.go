package core

import (
	"errors"
	"math/rand"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
)

// Section VI, "Addressing Content Correlation": Random-Cache assumes
// statistically independent content. When related content shares a name
// prefix (segments of one video, pages of one site), an adversary can
// probe many related names, each with an independently drawn k_C; the
// first undisguised hit reveals — with overwhelming probability — that
// the whole set was requested. The fix is to run Algorithm 1 on
// correlation groups: all content in a group shares a single counter c_C
// and threshold k_C.

// GroupFunc maps a content object to its correlation-group key.
type GroupFunc func(data *ndn.Data) string

// PrefixGroup groups content by its first depth name components — the
// paper's suggestion of treating elements of the same namespace as one
// group.
func PrefixGroup(depth int) GroupFunc {
	return func(data *ndn.Data) string {
		name := data.Name
		return name.Prefix(depth).String()
	}
}

// ContentIDGroup groups by the producer-assigned content-id field — the
// extension the paper proposes at the end of Section VI for correlated
// content whose names share no prefix (e.g., linked web pages). Content
// without a content-id falls back to the given function (typically a
// PrefixGroup, or per-content state via ExactGroup).
func ContentIDGroup(fallback GroupFunc) GroupFunc {
	return func(data *ndn.Data) string {
		if data.ContentID != "" {
			return "cid:" + data.ContentID
		}
		return fallback(data)
	}
}

// ExactGroup gives every content its own group: GroupedRandomCache with
// ExactGroup degenerates to plain RandomCache. Useful as the
// ContentIDGroup fallback.
func ExactGroup() GroupFunc {
	return func(data *ndn.Data) string { return data.Name.String() }
}

// groupState is the shared Algorithm 1 state of one correlation group.
type groupState struct {
	// key is the group's key, what its threshold draw is recorded under.
	key       string
	counter   uint64
	threshold uint64
	// members counts live cache entries in the group, so state can be
	// garbage-collected when the group leaves the cache entirely.
	members int
}

// String returns the group's key: a group is the name its draw is
// recorded under.
func (g *groupState) String() string { return g.key }

// GroupedRandomCache runs Algorithm 1 with one (c_C, k_C) pair per
// correlation group instead of per content.
type GroupedRandomCache struct {
	dist   KDistribution
	rng    *rand.Rand
	groups map[string]*groupState
	group  GroupFunc
	tap    *telemetry.Tap
}

var _ CacheManager = (*GroupedRandomCache)(nil)

// NewGroupedRandomCache builds the manager. All arguments are required.
func NewGroupedRandomCache(dist KDistribution, rng *rand.Rand, group GroupFunc) (*GroupedRandomCache, error) {
	if dist == nil {
		return nil, errors.New("core: grouped random cache requires a K distribution")
	}
	if rng == nil {
		return nil, errors.New("core: grouped random cache requires an RNG")
	}
	if group == nil {
		return nil, errors.New("core: grouped random cache requires a group function")
	}
	return &GroupedRandomCache{
		dist:   dist,
		rng:    rng,
		groups: make(map[string]*groupState),
		group:  group,
	}, nil
}

// Attach implements Observable: every fresh per-group threshold draw
// is recorded.
func (m *GroupedRandomCache) Attach(tap *telemetry.Tap) { m.tap = tap }

// OnCacheHit implements CacheManager.
func (m *GroupedRandomCache) OnCacheHit(entry *cache.Entry, interest *ndn.Interest, now time.Duration) Decision {
	entry.ForwardCount++
	if !EffectivePrivacy(entry, interest) {
		return serveNow()
	}
	state, _ := m.stateFor(entry, now)
	state.counter++
	if state.counter <= state.threshold {
		return Decision{Action: ActionMiss}
	}
	return serveNow()
}

// OnContentCached implements CacheManager. A member's initial fetch is
// itself a request against the group: it advances the shared counter
// (unless it is the request that created the group, mirroring
// Algorithm 1's initialization). Re-fetches caused by generated misses
// arrive on entries already in the group and do not count again — their
// triggering request was already counted by OnCacheHit.
func (m *GroupedRandomCache) OnContentCached(entry *cache.Entry, _ time.Duration, now time.Duration) {
	if entry.GroupKey != "" {
		return // refresh of a known member
	}
	if state, created := m.stateFor(entry, now); !created {
		state.counter++
	}
}

// OnContentEvicted must be called when the store evicts an entry, so that
// group state is dropped once no member remains cached (matching
// Algorithm 1's re-initialization of content outside T).
func (m *GroupedRandomCache) OnContentEvicted(entry *cache.Entry) {
	if entry.GroupKey == "" {
		return
	}
	state, found := m.groups[entry.GroupKey]
	if !found {
		return
	}
	state.members--
	if state.members <= 0 {
		delete(m.groups, entry.GroupKey)
	}
}

// stateFor returns entry's group state. An entry not yet in a group
// joins the one its group function names, which is created — drawing its
// threshold — when it does not exist yet; created reports that.
func (m *GroupedRandomCache) stateFor(entry *cache.Entry, now time.Duration) (state *groupState, created bool) {
	if entry.GroupKey != "" {
		return m.groups[entry.GroupKey], false
	}
	key := m.group(entry.Data)
	entry.GroupKey = key
	if state, found := m.groups[key]; found {
		state.members++
		return state, false
	}
	state = &groupState{key: key, threshold: m.dist.Draw(m.rng), members: 1}
	m.groups[key] = state
	// The draw parents under the hop that cached the entry.
	coin := telemetry.Rec{Stage: telemetry.StageCoin, Name: state,
		T0: int64(now), T1: int64(now), Value: state.threshold, Parent: entry.Fetch}
	m.tap.Record(&coin)
	return state, true
}

// Groups returns the number of live correlation groups, for tests.
func (m *GroupedRandomCache) Groups() int { return len(m.groups) }

// Reset drops all group state, for reuse across experiment runs.
func (m *GroupedRandomCache) Reset() {
	m.groups = make(map[string]*groupState)
}

// Name implements CacheManager.
func (m *GroupedRandomCache) Name() string { return "grouped-random-cache/" + m.dist.Name() }
