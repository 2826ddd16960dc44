package trace

import (
	"errors"
	"fmt"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// ReplayConfig drives one trace replay against a consumer-facing router
// cache running one cache-management algorithm — the Section VII setup.
type ReplayConfig struct {
	// CacheSize bounds the Content Store; 0 means unlimited (the
	// paper's "Inf" column).
	CacheSize int
	// Policy names the eviction policy ("lru" as in the paper; "fifo"
	// and "lfu" for ablations).
	Policy string
	// Manager is the cache-management algorithm under test.
	Manager core.CacheManager
	// UpstreamDelay is the synthetic fetch delay recorded as γ_C for
	// every miss (content-specific delay handling needs one).
	UpstreamDelay time.Duration
	// Metrics, Trace and Spans attach telemetry to the replayed store
	// and — for managers with internal randomness — the cache manager,
	// through one tap. Any may be nil. Spans records cache-residency
	// spans (insert → eviction) for every stored entry; open residencies
	// are closed at the last request's timestamp when the replay ends.
	Metrics *telemetry.Registry
	Trace   telemetry.Sink
	Spans   *span.Tracer
	// Node labels this replay's metrics and events; it defaults to the
	// manager's name so algorithm sweeps sharing one registry stay
	// distinguishable.
	Node string
}

// ReplayStats aggregates one replay.
type ReplayStats struct {
	Requests        uint64
	Hits            uint64 // undisguised cache hits (what Figure 5 counts)
	DisguisedHits   uint64 // served from cache after artificial delay
	GeneratedMisses uint64 // cached but deliberately treated as a miss
	RealMisses      uint64
	Evictions       uint64
	PrivateRequests uint64
}

// HitRate returns the percentage of requests answered as undisguised
// cache hits — the y-axis of Figure 5.
func (s ReplayStats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(s.Requests)
}

// BandwidthSavedRate returns the percentage of requests that did not
// travel upstream (hits + disguised hits): the delay-based schemes keep
// this equal to the no-privacy hit rate even though their visible
// HitRate drops.
func (s ReplayStats) BandwidthSavedRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.Hits+s.DisguisedHits) / float64(s.Requests)
}

// Replay streams the generator's requests through a router cache under
// the configured algorithm. The generator is Reset first, so replays of
// the same generator are identical.
func Replay(gen *Generator, cfg ReplayConfig) (ReplayStats, error) {
	if gen == nil {
		return ReplayStats{}, errors.New("trace: replay requires a generator")
	}
	gen.Reset()
	return replayStream(func() (Request, bool, error) {
		req, more := gen.Next()
		return req, more, nil
	}, cfg)
}

// replayStream is the engine shared by the synthetic generator, the
// compiled trace and the Squid-log replays: next returns (request,
// more, error).
func replayStream(next func() (Request, bool, error), cfg ReplayConfig) (ReplayStats, error) {
	if cfg.Manager == nil {
		return ReplayStats{}, errors.New("trace: replay requires a cache manager")
	}
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	policy, known := cache.NewPolicy(cfg.Policy)
	if !known {
		return ReplayStats{}, fmt.Errorf("trace: unknown eviction policy %q", cfg.Policy)
	}
	store, err := cache.NewStore(cfg.CacheSize, policy)
	if err != nil {
		return ReplayStats{}, err
	}
	node := cfg.Node
	if node == "" {
		node = cfg.Manager.Name()
	}
	if tap := telemetry.NewTap(telemetry.Hooks{Registry: cfg.Metrics, Sink: cfg.Trace, Tracer: cfg.Spans}, node); tap != nil {
		store.Attach(tap)
		if observable, isObservable := cfg.Manager.(core.Observable); isObservable {
			observable.Attach(tap)
		}
	}
	if grouped, isGrouped := cfg.Manager.(*core.GroupedRandomCache); isGrouped {
		grouped.Reset()
		store.SetEvictionHook(grouped.OnContentEvicted)
	}
	if cfg.UpstreamDelay <= 0 {
		cfg.UpstreamDelay = 50 * time.Millisecond
	}

	var stats ReplayStats
	var lastAt time.Duration
	// One interest buffer serves the whole replay: managers only read the
	// interest during OnCacheHit, and allocating a fresh packet per
	// request dominated the replay's allocation profile.
	interest := ndn.NewInterest(ndn.Name{}, 0)
	for {
		req, more, err := next()
		if err != nil {
			return stats, err
		}
		if !more {
			break
		}
		stats.Requests++
		lastAt = req.At
		if req.Private {
			stats.PrivateRequests++
		}
		interest.Name = req.Name
		interest.Nonce = stats.Requests

		entry, found := store.Exact(req.Name, req.At)
		if !found {
			stats.RealMisses++
			insertFetched(store, cfg.Manager, req, cfg.UpstreamDelay)
			continue
		}
		store.Touch(req.Name)
		decision := cfg.Manager.OnCacheHit(entry, interest, req.At)
		switch decision.Action {
		case core.ActionServe:
			stats.Hits++
		case core.ActionDelayedServe:
			stats.DisguisedHits++
		case core.ActionMiss:
			stats.GeneratedMisses++
			// The interest travels upstream; returning content
			// refreshes the live entry without resetting its
			// Random-Cache state.
			refreshed := store.Insert(entry.Data, req.At, cfg.UpstreamDelay)
			cfg.Manager.OnContentCached(refreshed, cfg.UpstreamDelay, req.At)
		}
	}
	stats.Evictions = store.Evictions()
	// Close still-open residency spans at the replay's end so exported
	// traces have no dangling intervals.
	store.FinishSpans(lastAt)
	return stats, nil
}

// unitPayload is every replayed object's content: size is uniform in
// the evaluation. Read-only: every compiled object carries it, and every
// store that caches one shares it.
var unitPayload = []byte("x")

func insertFetched(store *cache.Store, manager core.CacheManager, req Request, fetchDelay time.Duration) {
	d := req.Fetched
	if d == nil {
		var err error
		if d, err = ndn.NewData(req.Name, unitPayload); err != nil {
			return // unreachable: payload is non-empty
		}
		d.Private = req.Private
	}
	entry := store.Insert(d, req.At, fetchDelay)
	manager.OnContentCached(entry, fetchDelay, req.At)
}
