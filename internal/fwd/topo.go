package fwd

import (
	"fmt"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
)

// Topology helpers for assembling the paper's experimental setups:
// hosts, routers, and the links between them.

// NewRouter builds a forwarder with an LRU Content Store of the given
// capacity (0 = unlimited) and the given cache manager.
func NewRouter(sim *netsim.Simulator, name string, capacity int, manager core.CacheManager) (*Forwarder, error) {
	store, err := cache.NewStore(capacity, cache.NewLRU())
	if err != nil {
		return nil, err
	}
	return New(Config{
		Name:            name,
		Sim:             sim,
		Store:           store,
		Manager:         manager,
		ProcessingDelay: DefaultRouterProcessing,
	})
}

// NewStoreRouter builds a router around a caller-supplied Content Store
// — how a tiered RAM+disk store (cache.NewTieredStore) gets onto a node.
func NewStoreRouter(sim *netsim.Simulator, name string, store *cache.Store, manager core.CacheManager) (*Forwarder, error) {
	return New(Config{
		Name:            name,
		Sim:             sim,
		Store:           store,
		Manager:         manager,
		ProcessingDelay: DefaultRouterProcessing,
	})
}

// NewHost builds an end host: per the NDN node model it also keeps a
// local Content Store (the local-host cache a malicious application
// probes in Figure 3(d)).
func NewHost(sim *netsim.Simulator, name string, manager core.CacheManager) (*Forwarder, error) {
	store, err := cache.NewStore(0, cache.NewLRU())
	if err != nil {
		return nil, err
	}
	return New(Config{
		Name:            name,
		Sim:             sim,
		Store:           store,
		Manager:         manager,
		ProcessingDelay: DefaultHostProcessing,
	})
}

// NewBareHost builds an end host with no local Content Store. Attack
// scenarios use bare hosts for the measuring parties: the paper's
// adversary measures network RTTs, and a local cache would short-circuit
// its own repeat probes.
func NewBareHost(sim *netsim.Simulator, name string) (*Forwarder, error) {
	return New(Config{
		Name:            name,
		Sim:             sim,
		ProcessingDelay: DefaultHostProcessing,
	})
}

// Default per-packet processing delays, calibrated so the local-host
// experiment's sub-millisecond RTTs (Figure 3(d)) come out right.
const (
	DefaultRouterProcessing = 50 * time.Microsecond
	DefaultHostProcessing   = 100 * time.Microsecond
)

// Connect joins two forwarders with a new link and returns the face IDs
// each side assigned (aID on a, bID on b) along with the link itself,
// for stats inspection and fault injection.
func Connect(sim *netsim.Simulator, a, b *Forwarder, cfg netsim.LinkConfig) (aID, bID table.FaceID, link *netsim.Link, err error) {
	link, err = netsim.NewLink(sim, cfg)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("fwd: connecting %s—%s: %w", a.Name(), b.Name(), err)
	}
	aID = a.AttachPort(link.Port(0))
	bID = b.AttachPort(link.Port(1))
	return aID, bID, link, nil
}

// Chain connects a sequence of forwarders into a path with identical link
// configs and installs default routes in both directions for the given
// prefix: interests for the prefix flow toward the last node, so the
// producer should sit there. It returns nothing but the error; faces are
// managed internally.
func Chain(sim *netsim.Simulator, nodes []*Forwarder, cfg netsim.LinkConfig, prefixes ...string) error {
	if len(nodes) < 2 {
		return fmt.Errorf("fwd: chain needs at least two nodes, got %d", len(nodes))
	}
	for i := 0; i+1 < len(nodes); i++ {
		left, right := nodes[i], nodes[i+1]
		leftFace, _, _, err := Connect(sim, left, right, cfg)
		if err != nil {
			return err
		}
		for _, prefix := range prefixes {
			name, err := ndn.ParseName(prefix)
			if err != nil {
				return err
			}
			if err := left.RegisterPrefix(name, leftFace); err != nil {
				return err
			}
		}
	}
	return nil
}
