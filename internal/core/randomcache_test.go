package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
)

func TestUniformKValidation(t *testing.T) {
	if _, err := NewUniformK(0); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestUniformKDrawInRange(t *testing.T) {
	u, err := NewUniformK(10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		r := u.Draw(rng)
		if r >= 10 {
			t.Fatalf("Draw = %d out of [0, 10)", r)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("uniform bucket %d has %d/10000 draws", r, c)
		}
	}
	if got, want := u.Mean(), 4.5; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if u.DomainSize() != 10 {
		t.Error("DomainSize wrong")
	}
}

func TestUniformKProbSumsToOne(t *testing.T) {
	u, _ := NewUniformK(7)
	sum := 0.0
	for r := uint64(0); r < 9; r++ {
		sum += u.Prob(r)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Prob sums to %g", sum)
	}
	if u.Prob(7) != 0 {
		t.Error("Prob beyond domain nonzero")
	}
}

func TestGeometricKValidation(t *testing.T) {
	if _, err := NewGeometricK(0, 10); err == nil {
		t.Error("α=0 accepted")
	}
	if _, err := NewGeometricK(1, 10); err == nil {
		t.Error("α=1 accepted")
	}
	if _, err := NewGeometricK(0.5, 0); err == nil {
		t.Error("K=0 accepted on truncated constructor")
	}
	if _, err := NewGeometricUnbounded(1.5); err == nil {
		t.Error("α>1 accepted")
	}
}

func TestGeometricKProbMatchesFormula(t *testing.T) {
	g, err := NewGeometricK(0.8, 20)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for r := uint64(0); r < 20; r++ {
		want := (1 - 0.8) * math.Pow(0.8, float64(r)) / (1 - math.Pow(0.8, 20))
		if got := g.Prob(r); math.Abs(got-want) > 1e-12 {
			t.Errorf("Prob(%d) = %g, want %g", r, got, want)
		}
		sum += g.Prob(r)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("truncated geometric mass = %g", sum)
	}
	if g.Prob(20) != 0 {
		t.Error("mass beyond truncation")
	}
}

func TestGeometricKMeanMatchesSum(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		k     uint64
	}{{0.5, 10}, {0.9, 50}, {0.99, 200}} {
		g, err := NewGeometricK(tc.alpha, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		direct := 0.0
		for r := uint64(0); r < tc.k; r++ {
			direct += float64(r) * g.Prob(r)
		}
		if got := g.Mean(); math.Abs(got-direct) > 1e-9 {
			t.Errorf("α=%g K=%d: Mean = %g, direct sum = %g", tc.alpha, tc.k, got, direct)
		}
	}
}

func TestGeometricUnboundedMean(t *testing.T) {
	g, err := NewGeometricUnbounded(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Unbounded() {
		t.Error("Unbounded() false")
	}
	if got, want := g.Mean(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

func TestGeometricDrawMatchesDistribution(t *testing.T) {
	g, _ := NewGeometricK(0.7, 15)
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		r := g.Draw(rng)
		if r >= 15 {
			t.Fatalf("Draw = %d beyond truncation", r)
		}
		counts[r]++
	}
	for r := uint64(0); r < 15; r++ {
		want := g.Prob(r)
		got := float64(counts[r]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical Pr(%d) = %g, want %g", r, got, want)
		}
	}
}

func TestGeometricUnboundedDrawMatchesDistribution(t *testing.T) {
	g, _ := NewGeometricUnbounded(0.6)
	rng := rand.New(rand.NewSource(43))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Draw(rng))
	}
	if mean := sum / n; math.Abs(mean-1.5) > 0.05 {
		t.Errorf("empirical mean = %g, want 1.5", mean)
	}
}

func TestNaiveK(t *testing.T) {
	nk := NewNaiveK(5)
	rng := rand.New(rand.NewSource(1))
	if nk.Draw(rng) != 5 || nk.Mean() != 5 {
		t.Error("naive K is not deterministic")
	}
	if nk.Prob(5) != 1 || nk.Prob(4) != 0 {
		t.Error("naive Prob wrong")
	}
}

func TestRandomCacheValidation(t *testing.T) {
	u, _ := NewUniformK(10)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRandomCache(nil, rng); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := NewRandomCache(u, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

// runAlgorithm1 replays c requests for one private content against a
// fresh RandomCache, mirroring the paper's probing setup, and returns the
// number of misses (including the initializing fetch).
func runAlgorithm1(t *testing.T, m CacheManager, c int) int {
	t.Helper()
	e := privateEntry(t, "/p/content")
	misses := 1 // first request: cache miss, content fetched and cached
	m.OnContentCached(e, 0, 0)
	for i := 1; i < c; i++ {
		d := m.OnCacheHit(e, privateInterest("/p/content"), 0)
		switch d.Action {
		case ActionMiss:
			misses++
			// The generated miss re-fetches content; the router
			// re-caches it over the live entry.
			m.OnContentCached(e, 0, 0)
		case ActionServe:
		default:
			t.Fatalf("unexpected action %v", d.Action)
		}
	}
	return misses
}

func TestRandomCacheFirstRequestAlwaysMiss(t *testing.T) {
	// With threshold k_C = 0 the second request must already be a hit,
	// but the first is structurally a miss (content not cached).
	u, _ := NewUniformK(1) // always draws 0
	m, err := NewRandomCache(u, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := runAlgorithm1(t, m, 5); got != 1 {
		t.Errorf("misses = %d, want 1 (only the initial fetch)", got)
	}
}

func TestRandomCacheMissesEqualThresholdPlusOne(t *testing.T) {
	nk := NewNaiveK(3)
	m, _ := NewRandomCache(nk, rand.New(rand.NewSource(1)))
	if got := runAlgorithm1(t, m, 10); got != 4 {
		t.Errorf("misses = %d, want k_C+1 = 4", got)
	}
}

func TestRandomCacheThresholdStableAcrossRefetches(t *testing.T) {
	// A disguised miss triggers a re-fetch; OnContentCached on the live
	// entry must not redraw k_C, or the miss run would be unbounded.
	u, _ := NewUniformK(1000)
	m, _ := NewRandomCache(u, rand.New(rand.NewSource(7)))
	e := privateEntry(t, "/p/x")
	m.OnContentCached(e, 0, 0)
	k1 := e.Threshold
	m.OnCacheHit(e, privateInterest("/p/x"), 0)
	m.OnContentCached(e, 0, 0)
	if e.Threshold != k1 {
		t.Errorf("threshold redrawn: %d → %d", k1, e.Threshold)
	}
}

func TestRandomCachePublicContentUnaffected(t *testing.T) {
	u, _ := NewUniformK(1000000) // would disguise ~forever
	m, _ := NewRandomCache(u, rand.New(rand.NewSource(1)))
	e := publicEntry(t, "/pub/x")
	m.OnContentCached(e, 0, 0)
	if d := m.OnCacheHit(e, plainInterest("/pub/x"), 0); d.Action != ActionServe {
		t.Errorf("public hit disguised: %+v", d)
	}
}

func TestRandomCacheEmpiricalUtilityMatchesTheorem(t *testing.T) {
	// Cross-check Algorithm 1 against Equation (1) for both
	// distributions: the empirical mean misses over many trials must
	// match ExpectedMisses.
	cases := []struct {
		name string
		dist KDistribution
	}{
		{"uniform", mustUniform(t, 20)},
		{"geometric", mustGeometric(t, 0.85, 30)},
	}
	const (
		c      = 25
		trials = 4000
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			total := 0
			for trial := 0; trial < trials; trial++ {
				m, err := NewRandomCache(tc.dist, rng)
				if err != nil {
					t.Fatal(err)
				}
				total += runAlgorithm1(t, m, c)
			}
			empirical := float64(total) / trials
			want := ExpectedMisses(tc.dist, c)
			if math.Abs(empirical-want) > 0.25 {
				t.Errorf("empirical E[M(%d)] = %g, theorem = %g", c, empirical, want)
			}
		})
	}
}

func TestGroupedRandomCacheValidation(t *testing.T) {
	u, _ := NewUniformK(10)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGroupedRandomCache(nil, rng, PrefixGroup(2)); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := NewGroupedRandomCache(u, nil, PrefixGroup(2)); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := NewGroupedRandomCache(u, rng, nil); err == nil {
		t.Error("nil group func accepted")
	}
}

func dataNamed(t *testing.T, name string) *ndn.Data {
	t.Helper()
	d, err := ndn.NewData(ndn.MustParseName(name), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPrefixGroup(t *testing.T) {
	g := PrefixGroup(2)
	if got := g(dataNamed(t, "/site/page/3/segment/0")); got != "/site/page" {
		t.Errorf("group = %q, want /site/page", got)
	}
	if got := g(dataNamed(t, "/short")); got != "/short" {
		t.Errorf("short name group = %q, want /short", got)
	}
}

func TestContentIDGroup(t *testing.T) {
	g := ContentIDGroup(ExactGroup())
	linked := dataNamed(t, "/siteA/page1")
	linked.ContentID = "story-42"
	alsoLinked := dataNamed(t, "/siteB/mirror/page")
	alsoLinked.ContentID = "story-42"
	plain := dataNamed(t, "/siteC/other")

	if g(linked) != g(alsoLinked) {
		t.Error("same content-id mapped to different groups")
	}
	if g(linked) == g(plain) {
		t.Error("unrelated content shares the content-id group")
	}
	if got := g(plain); got != "/siteC/other" {
		t.Errorf("fallback group = %q, want exact name", got)
	}
}

func TestContentIDGroupSharesRandomCacheState(t *testing.T) {
	// Two objects under unrelated prefixes but with the producer's
	// content-id share one (c_C, k_C) — the Section VI extension for
	// semantically related content.
	nk := NewNaiveK(2)
	m, err := NewGroupedRandomCache(nk, rand.New(rand.NewSource(1)), ContentIDGroup(ExactGroup()))
	if err != nil {
		t.Fatal(err)
	}
	a := privateEntry(t, "/siteA/page1")
	a.Data.ContentID = "story"
	b := privateEntry(t, "/siteB/page2")
	b.Data.ContentID = "story"
	m.OnContentCached(a, 0, 0) // creates group, counter 0
	m.OnContentCached(b, 0, 0) // joins via content-id, counter 1
	if m.Groups() != 1 {
		t.Fatalf("Groups = %d, want 1 (joined by content-id)", m.Groups())
	}
	// Probes advance one shared counter: 2 (≤2 miss), 3 (>2 hit).
	if d := m.OnCacheHit(a, privateInterest("/siteA/page1"), 0); d.Action != ActionMiss {
		t.Errorf("first probe = %v, want miss", d.Action)
	}
	if d := m.OnCacheHit(b, privateInterest("/siteB/page2"), 0); d.Action != ActionServe {
		t.Errorf("second probe = %v, want serve", d.Action)
	}
}

func TestGroupedRandomCacheSharesState(t *testing.T) {
	// All members of a group share one (c_C, k_C): every request against
	// any member — including a new member's initial fetch — advances the
	// same counter (the Section VI correlation fix).
	nk := NewNaiveK(4)
	m, err := NewGroupedRandomCache(nk, rand.New(rand.NewSource(1)), PrefixGroup(1))
	if err != nil {
		t.Fatal(err)
	}
	segA := privateEntry(t, "/video/seg0")
	segB := privateEntry(t, "/video/seg1")
	m.OnContentCached(segA, 0, 0) // creates the group, counter 0
	m.OnContentCached(segB, 0, 0) // joins: counter 1
	if m.Groups() != 1 {
		t.Fatalf("Groups = %d, want 1", m.Groups())
	}
	// Probes advance the shared counter 2, 3, 4 (≤ k_C=4: misses), then
	// 5 (> 4: hit) — regardless of which member is probed.
	probes := []*cache.Entry{segA, segB, segA, segB}
	wantMiss := []bool{true, true, true, false}
	for i, e := range probes {
		d := m.OnCacheHit(e, privateInterest(e.Data.Name.String()), 0)
		if gotMiss := d.Action == ActionMiss; gotMiss != wantMiss[i] {
			t.Errorf("probe %d: miss=%t, want %t", i, gotMiss, wantMiss[i])
		}
	}
}

func TestGroupedRandomCacheRefreshDoesNotDoubleCount(t *testing.T) {
	// A generated miss triggers a re-fetch whose OnContentCached lands
	// on the same member; the counter must advance once per request,
	// not twice.
	nk := NewNaiveK(2)
	m, err := NewGroupedRandomCache(nk, rand.New(rand.NewSource(1)), PrefixGroup(1))
	if err != nil {
		t.Fatal(err)
	}
	e := privateEntry(t, "/g/x")
	m.OnContentCached(e, 0, 0) // counter 0
	misses := 0
	for i := 0; i < 4; i++ {
		if d := m.OnCacheHit(e, privateInterest("/g/x"), 0); d.Action == ActionMiss {
			misses++
			m.OnContentCached(e, 0, 0) // refresh after upstream fetch
		}
	}
	if misses != 2 {
		t.Errorf("misses = %d, want exactly k_C = 2", misses)
	}
}

func TestGroupedRandomCacheIndependentGroups(t *testing.T) {
	nk := NewNaiveK(1)
	m, _ := NewGroupedRandomCache(nk, rand.New(rand.NewSource(1)), PrefixGroup(1))
	a := privateEntry(t, "/a/x")
	b := privateEntry(t, "/b/x")
	m.OnContentCached(a, 0, 0)
	m.OnContentCached(b, 0, 0)
	if d := m.OnCacheHit(a, privateInterest("/a/x"), 0); d.Action != ActionMiss {
		t.Error("group /a first probe should miss")
	}
	if d := m.OnCacheHit(b, privateInterest("/b/x"), 0); d.Action != ActionMiss {
		t.Error("group /b has independent counter; first probe should miss")
	}
	if m.Groups() != 2 {
		t.Errorf("Groups = %d, want 2", m.Groups())
	}
}

func TestGroupedRandomCacheEvictionDropsState(t *testing.T) {
	nk := NewNaiveK(1)
	m, _ := NewGroupedRandomCache(nk, rand.New(rand.NewSource(1)), PrefixGroup(1))
	a := privateEntry(t, "/a/x")
	b := privateEntry(t, "/a/y")
	m.OnContentCached(a, 0, 0)
	m.OnContentCached(b, 0, 0)
	m.OnContentEvicted(a)
	if m.Groups() != 1 {
		t.Errorf("Groups = %d after partial eviction, want 1", m.Groups())
	}
	m.OnContentEvicted(b)
	if m.Groups() != 0 {
		t.Errorf("Groups = %d after full eviction, want 0", m.Groups())
	}
	// Evicting an unknown entry must not panic.
	m.OnContentEvicted(privateEntry(t, "/ghost/x"))
	m.Reset()
	if m.Groups() != 0 {
		t.Error("Reset left state")
	}
}

func TestGroupedRandomCachePublicServes(t *testing.T) {
	u, _ := NewUniformK(1000000)
	m, _ := NewGroupedRandomCache(u, rand.New(rand.NewSource(1)), PrefixGroup(1))
	e := publicEntry(t, "/pub/x")
	m.OnContentCached(e, 0, 0)
	if d := m.OnCacheHit(e, plainInterest("/pub/x"), 0); d.Action != ActionServe {
		t.Errorf("public hit disguised: %+v", d)
	}
}

// Property: for any distribution and request count, misses from Algorithm 1
// are between 1 and min(c, k_C+1), and utility is within [0, 1].
func TestRandomCacheMissBoundsProperty(t *testing.T) {
	f := func(seed int64, domain uint16, reqs uint8) bool {
		if domain == 0 {
			domain = 1
		}
		c := int(reqs)%40 + 1
		u, err := NewUniformK(uint64(domain))
		if err != nil {
			return false
		}
		m, err := NewRandomCache(u, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		e := privateEntryForQuick()
		misses := 1
		m.OnContentCached(e, 0, 0)
		for i := 1; i < c; i++ {
			if d := m.OnCacheHit(e, privateInterestForQuick(), 0); d.Action == ActionMiss {
				misses++
				m.OnContentCached(e, 0, 0)
			}
		}
		maxMisses := int(e.Threshold) + 1
		if maxMisses > c {
			maxMisses = c
		}
		return misses >= 1 && misses <= maxMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// privateEntryForQuick and privateInterestForQuick avoid *testing.T so
// they can run inside testing/quick predicates.
func privateEntryForQuick() *cache.Entry {
	d, err := ndn.NewData(ndn.MustParseName("/p/q"), []byte("x"))
	if err != nil {
		panic(err)
	}
	d.Private = true
	return &cache.Entry{Data: d, Private: true}
}

func privateInterestForQuick() *ndn.Interest {
	return ndn.NewInterest(ndn.MustParseName("/p/q"), 1).WithPrivacy(ndn.PrivacyRequested)
}

func mustUniform(t *testing.T, k uint64) *UniformK {
	t.Helper()
	u, err := NewUniformK(k)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func mustGeometric(t *testing.T, alpha float64, k uint64) *GeometricK {
	t.Helper()
	g, err := NewGeometricK(alpha, k)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A threshold draw is recorded under what it was drawn for: Random-Cache
// names the content, Grouped Random-Cache the group's key — a prefix, or
// a content-id that is no name at all.
func TestCoinRecordNamesTheDraw(t *testing.T) {
	events := telemetry.NewRecorder()
	tap := telemetry.NewTap(telemetry.Hooks{Sink: events}, "R")
	plain, err := NewRandomCache(NewNaiveK(2), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := NewGroupedRandomCache(NewNaiveK(2), rand.New(rand.NewSource(1)), ContentIDGroup(PrefixGroup(1)))
	if err != nil {
		t.Fatal(err)
	}
	plain.Attach(tap)
	grouped.Attach(tap)
	plain.OnContentCached(privateEntry(t, "/site/a%2Fb/1"), 0, 0)
	grouped.OnContentCached(privateEntry(t, "/site/page/1"), 0, 0)
	grouped.OnContentCached(privateEntry(t, "/site/page/2"), 0, 0) // joins /site: no draw
	linked := privateEntry(t, "/other/page")
	linked.Data.ContentID = "story-42"
	grouped.OnContentCached(linked, 0, 0)
	var got []string
	for _, ev := range events.Events() {
		if ev.Type == telemetry.EvCMCoin {
			got = append(got, ev.Name)
		}
	}
	if want := []string{"/site/a%2Fb/1", "/site", "cid:story-42"}; !reflect.DeepEqual(got, want) {
		t.Errorf("coin events name %q, want %q", got, want)
	}
}
