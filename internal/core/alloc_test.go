package core

import (
	"math/rand"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

// These tests pin the zero-allocation contract of the cache managers'
// OnCacheHit: the per-hit privacy decision executes inside the response
// latency the paper's adversary measures, so an allocation there is
// timing noise in the hit/miss distributions
// (BenchmarkRandomCacheDecision and BenchmarkDelayManagerDecision report
// 0 allocs/op). Each pin decides a private hit and a public one, which
// is served at once; the Random-Cache pin also draws a threshold per
// run.

// publicHit returns a cached entry and an interest that both leave the
// content public.
func publicHit() (*cache.Entry, *ndn.Interest) {
	d, err := ndn.NewData(ndn.MustParseName("/p/public"), []byte("x"))
	if err != nil {
		panic(err)
	}
	return &cache.Entry{Data: d}, ndn.NewInterest(d.Name, 1)
}

func TestRandomCacheDecisionZeroAlloc(t *testing.T) {
	geometric, err := NewGeometricK(0.99, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// NaiveK with a threshold beyond the run disguises every hit.
	for _, dist := range []KDistribution{geometric, NewNaiveK(1 << 20)} {
		m, err := NewRandomCache(dist, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		e := privateEntryForQuick()
		m.OnContentCached(e, 0, 0)
		i := privateInterestForQuick()
		pub, pubInterest := publicHit()
		recached := privateEntryForQuick()
		if n := testing.AllocsPerRun(200, func() {
			m.OnCacheHit(e, i, 0)
			if m.OnCacheHit(pub, pubInterest, 0).Action != ActionServe {
				t.Fatal("public hit not served")
			}
			// Content cached again after an eviction arrives on a fresh
			// entry and draws a fresh threshold (Algorithm 1).
			*recached = cache.Entry{Data: recached.Data}
			m.OnContentCached(recached, 0, 0)
		}); n != 0 {
			t.Errorf("RandomCache(%s).OnCacheHit: %.0f allocs/run, want 0", dist.Name(), n)
		}
	}
}

func TestDelayManagerDecisionZeroAlloc(t *testing.T) {
	constant, err := NewConstantDelay(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []DelayStrategy{NewContentSpecificDelay(), constant} {
		m, err := NewDelayManager(strategy)
		if err != nil {
			t.Fatal(err)
		}
		e := privateEntryForQuick()
		e.FetchDelay = 20 * time.Millisecond
		i := privateInterestForQuick()
		pub, pubInterest := publicHit()
		if n := testing.AllocsPerRun(200, func() {
			m.OnCacheHit(e, i, 0)
			if m.OnCacheHit(pub, pubInterest, 0).Action != ActionServe {
				t.Fatal("public hit not served")
			}
		}); n != 0 {
			t.Errorf("DelayManager(%s).OnCacheHit: %.0f allocs/run, want 0", strategy.Name(), n)
		}
	}
}

func TestDynamicDelayDecisionZeroAlloc(t *testing.T) {
	strategy, err := NewDynamicDelay(5*time.Millisecond, 32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDelayManager(strategy)
	if err != nil {
		t.Fatal(err)
	}
	e := privateEntryForQuick()
	e.FetchDelay = 20 * time.Millisecond
	i := privateInterestForQuick()
	if n := testing.AllocsPerRun(200, func() {
		m.OnCacheHit(e, i, 0)
	}); n != 0 {
		t.Errorf("DelayManager(dynamic).OnCacheHit: %.0f allocs/run, want 0", n)
	}
}
