package trace

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"ndnprivacy/internal/ndn"
)

// Request is one trace record.
type Request struct {
	// At is the request's offset from trace start.
	At time.Duration
	// User identifies the requesting client (0-based).
	User int
	// Name is the requested content name.
	Name ndn.Name
	// Private reports whether the content belongs to the private
	// partition (Section VII randomly divides content into private and
	// non-private).
	Private bool
	// Object is the content's popularity rank, for diagnostics.
	Object int
	// Fetched, when non-nil, is the content object upstream returns for
	// Name — a source that already holds it (a compiled trace) saves the
	// replay building one per miss. It is shared and must not be
	// mutated; the store caches a copy.
	Fetched *ndn.Data
}

// GeneratorConfig shapes a synthetic proxy workload. The defaults mirror
// the IRCache trace the paper used: 185 users and a 24-hour window; the
// request count is scaled by the caller (the paper replayed ≈3.2 million
// requests over ≈1.76 million distinct URLs).
type GeneratorConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Users is the client population (paper: 185).
	Users int
	// Requests is the total number of requests to generate.
	Requests int
	// Objects is the distinct-content population.
	Objects int
	// ZipfExponent sets popularity skew (web: ≈0.6–0.9).
	ZipfExponent float64
	// PrivateFraction is the probability that a given content is in the
	// private partition (paper: 0.05 / 0.1 / 0.2 / 0.4).
	PrivateFraction float64
	// Duration is the trace's wall-clock span (paper: 24h).
	Duration time.Duration
	// Diurnal modulates request intensity sinusoidally over Duration
	// (quiet nights, busy afternoons) when true.
	Diurnal bool
}

// DefaultGeneratorConfig returns the paper-calibrated configuration at a
// caller-chosen scale. The object population is 2.5× the request count:
// with Zipf(0.8) popularity this pins the fraction of first-seen objects
// — and therefore the infinite-cache hit rate — near the paper's ≈45–50%
// "Inf" column (the IRCache trace: ≈3.2M requests, ≈45% peak hit rate).
func DefaultGeneratorConfig(seed int64, requests int) GeneratorConfig {
	objects := int(float64(requests) * 2.5)
	if objects < 1 {
		objects = 1
	}
	return GeneratorConfig{
		Seed:            seed,
		Users:           185,
		Requests:        requests,
		Objects:         objects,
		ZipfExponent:    0.8,
		PrivateFraction: 0.1,
		Duration:        24 * time.Hour,
		Diurnal:         true,
	}
}

func (c *GeneratorConfig) validate() error {
	if c.Users <= 0 {
		return fmt.Errorf("trace: users %d must be positive", c.Users)
	}
	if c.Requests <= 0 {
		return fmt.Errorf("trace: requests %d must be positive", c.Requests)
	}
	if c.Objects <= 0 {
		return fmt.Errorf("trace: objects %d must be positive", c.Objects)
	}
	if c.PrivateFraction < 0 || c.PrivateFraction > 1 {
		return fmt.Errorf("trace: private fraction %g outside [0, 1]", c.PrivateFraction)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("trace: duration %v must be positive", c.Duration)
	}
	return nil
}

// Generator produces a deterministic request stream on demand, so
// multi-gigabyte traces never materialize in memory.
type Generator struct {
	cfg  GeneratorConfig
	zipf *Zipf
	rng  *rand.Rand
	emit int
	now  time.Duration
	// names memoizes ObjectName per rank: names depend only on the rank,
	// and Zipf popularity revisits hot ranks constantly, so building the
	// name once per distinct object (instead of once per request) removes
	// the dominant allocation in trace replay. The memo survives Reset.
	names map[int]ndn.Name
}

// NewGenerator builds a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	z, err := NewZipf(cfg.Objects, cfg.ZipfExponent)
	if err != nil {
		return nil, err
	}
	return &Generator{
		cfg:   cfg,
		zipf:  z,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		names: make(map[int]ndn.Name),
	}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() GeneratorConfig { return g.cfg }

// Next returns the next request, or false when the trace is exhausted.
func (g *Generator) Next() (Request, bool) {
	at, user, obj, more := g.draw()
	if !more {
		return Request{}, false
	}
	return Request{
		At:      at,
		User:    user,
		Name:    g.objectName(obj),
		Private: g.ObjectIsPrivate(obj),
		Object:  obj,
	}, true
}

// draw advances the stream by one request and returns its random part:
// arrival offset, user and object rank. Everything else in a Request is
// a function of the rank.
func (g *Generator) draw() (at time.Duration, user, obj int, more bool) {
	if g.emit >= g.cfg.Requests {
		return 0, 0, 0, false
	}
	g.now += g.interArrival()
	obj = g.zipf.Sample(g.rng)
	user = g.rng.Intn(g.cfg.Users)
	g.emit++
	return g.now, user, obj, true
}

// Reset rewinds the generator to reproduce the identical stream.
func (g *Generator) Reset() {
	g.rng = rand.New(rand.NewSource(g.cfg.Seed))
	g.emit = 0
	g.now = 0
}

// ObjectIsPrivate deterministically assigns the content partition: the
// same object is private in every run with the same seed, independent of
// request order — the property per-content marking needs.
func (g *Generator) ObjectIsPrivate(obj int) bool {
	if g.cfg.PrivateFraction <= 0 {
		return false
	}
	if g.cfg.PrivateFraction >= 1 {
		return true
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(obj >> (8 * i))
		buf[8+i] = byte(g.cfg.Seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return float64(h.Sum64())/float64(math.MaxUint64) < g.cfg.PrivateFraction
}

// interArrival spaces requests so the trace spans ≈Duration, optionally
// modulating intensity over a diurnal cycle.
func (g *Generator) interArrival() time.Duration {
	meanGap := float64(g.cfg.Duration) / float64(g.cfg.Requests)
	if g.cfg.Diurnal {
		// Intensity varies ×[0.4, 1.6] over the day; the gap is the
		// reciprocal of intensity.
		phase := 2 * math.Pi * float64(g.now) / float64(g.cfg.Duration)
		intensity := 1 + 0.6*math.Sin(phase-math.Pi/2)
		if intensity < 0.1 {
			intensity = 0.1
		}
		meanGap /= intensity
	}
	// Exponential inter-arrivals (Poisson process).
	gap := g.rng.ExpFloat64() * meanGap
	return time.Duration(gap)
}

func (g *Generator) objectName(obj int) ndn.Name {
	if n, ok := g.names[obj]; ok {
		return n
	}
	n := ObjectName(obj)
	g.names[obj] = n
	return n
}

var webRoot = ndn.MustParseName("/web")

// ObjectName maps a popularity rank to a hierarchical content name. The
// two-level layout (sites of 100 objects) gives the correlation-grouping
// experiments a realistic namespace.
func ObjectName(obj int) ndn.Name {
	return webRoot.AppendString(
		"site"+strconv.Itoa(obj/100),
		"obj"+strconv.Itoa(obj),
	)
}
