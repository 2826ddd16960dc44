// Fixture: idiomatic deterministic-package code exercising near-misses
// of every check. Checked under the import path
// ndnprivacy/internal/netsim; expects zero findings.
package netsim

import (
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"sync"
	"time"

	"ndnprivacy/internal/ndn"
)

// Sim holds injected virtual time and seeded randomness.
type Sim struct {
	mu  sync.Mutex
	now time.Duration
	rng *rand.Rand
}

// New builds a Sim from a seed: rand.New/NewSource are the legal way in.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Advance moves virtual time by pure Duration arithmetic.
func (s *Sim) Advance(d time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now += d
	return s.now
}

// NewV2 builds math/rand/v2 generators from the seed: New, NewPCG,
// NewChaCha8 and NewZipf construct injected sources, like v1's New and
// NewSource.
func NewV2(seed uint64, key [32]byte) (*randv2.Rand, *randv2.Zipf) {
	r := randv2.New(randv2.NewPCG(seed, seed))
	return randv2.New(randv2.NewChaCha8(key)), randv2.NewZipf(r, 1.1, 1, 100)
}

// Jitter draws from the injected source, never the global one.
func (s *Sim) Jitter(n int) int { return s.rng.Intn(n) }

// Names decodes with the error handled and reports keys sorted.
func Names(wire map[string][]byte) ([]string, error) {
	keys := make([]string, 0, len(wire))
	for k := range wire {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := ndn.DecodePacket(wire[k]); err != nil {
			return nil, err
		}
	}
	return keys, nil
}
