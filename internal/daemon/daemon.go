// Package daemon assembles the live router — a real-time executor, a
// Content Store (optionally over a file tier), a cache manager and a
// forwarder, dialled to its routes and listening on TCP — for cmd/ndnd,
// and for the examples and tests that start the same router in-process.
package daemon

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

// Route sends interests under Prefix to the upstream at Addr.
type Route struct {
	Prefix ndn.Name
	Addr   string
}

// Config is one field per ndnd flag.
type Config struct {
	Listen       string  // TCP listen address
	Capacity     int     // store capacity (0 = unlimited); the RAM front's with TierDir
	Manager      string  // cache privacy policy: none, delay or random
	K            uint64  // popularity threshold k for Manager "random"
	Eps          float64 // privacy parameter ε for Manager "random"
	TierDir      string  // directory of the file-backed second tier ("" = none)
	TierCapacity int     // second-tier object bound with TierDir (0 = unlimited)
	Routes       []Route // upstreams, each dialled once at start
}

// Daemon is a started router.
type Daemon struct {
	exec      *rt.Executor
	store     *cache.Store
	forwarder *fwd.Forwarder
	upstream  []*netface.Face
	listener  *netface.Listener
	faces     sync.WaitGroup // one per reportClose still waiting
	closeOnce sync.Once
	closeErr  error
}

// Start assembles the router cfg describes, dials its routes and starts
// listening, printing a line per route and per face to stdout. Its
// entropy comes from crypto/rand. On error it closes what it opened.
func Start(cfg Config) (_ *Daemon, err error) {
	seed, err := randomSeed(crand.Reader)
	if err != nil {
		return nil, err
	}
	thresholds := rand.New(newEntropySource(crand.Reader, func(err error) {
		fmt.Fprintf(os.Stderr, "ndnd: %v\n", err)
		os.Exit(1)
	}))
	manager, err := buildManager(cfg.Manager, cfg.K, cfg.Eps, thresholds)
	if err != nil {
		return nil, err
	}
	store, err := buildStore(cfg.Capacity, cfg.TierDir, cfg.TierCapacity)
	if err != nil {
		return nil, err
	}
	d := &Daemon{exec: rt.New(seed), store: store}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()
	d.forwarder, err = fwd.New(fwd.Config{Name: "ndnd", Sim: d.exec, Store: store, Manager: manager})
	if err != nil {
		return nil, err
	}

	for _, route := range cfg.Routes {
		face, err := netface.Dial(d.forwarder, "tcp", route.Addr, func(err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "ndnd: upstream %s closed: %v\n", route.Addr, err)
			}
		})
		if err != nil {
			return nil, err
		}
		d.upstream = append(d.upstream, face)
		d.reportClose(face)
		if err := netface.RunOn(d.forwarder, func() error {
			return d.forwarder.RegisterPrefix(route.Prefix, face.ID())
		}); err != nil {
			return nil, err
		}
		fmt.Printf("ndnd: route %s → %s\n", route.Prefix, route.Addr)
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	d.listener, err = netface.Listen(d.forwarder, ln, func(face *netface.Face) {
		fmt.Printf("ndnd: face %d connected\n", face.ID())
		d.reportClose(face)
	})
	if err != nil {
		ln.Close() //nolint:errcheck // start failed; best-effort release
		return nil, err
	}
	return d, nil
}

// Addr returns the address consumers connect to.
func (d *Daemon) Addr() net.Addr { return d.listener.Addr() }

// Forwarder returns the router's forwarder; touch it through netface.RunOn.
func (d *Daemon) Forwarder() *fwd.Forwarder { return d.forwarder }

// Close stops accepting and closes every face, waiting for each; then,
// in one last callback, it stops the executor and closes the store, so
// nothing runs after the store closes. Later calls return the same error.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		if d.listener != nil {
			d.closeErr = d.listener.Close()
		}
		for _, face := range d.upstream {
			_ = face.Close()
		}
		d.faces.Wait()
		closed := make(chan error, 1)
		d.exec.Schedule(0, func() {
			d.exec.Close()
			closed <- d.store.Close()
		})
		d.closeErr = errors.Join(d.closeErr, <-closed)
	})
	return d.closeErr
}

// buildManager makes the selected cache manager. rng is where
// Random-Cache draws its thresholds k_C; the manager runs inside executor
// callbacks only, so it needs no locking.
func buildManager(kind string, k uint64, eps float64, rng *rand.Rand) (core.CacheManager, error) {
	switch kind {
	case "none":
		return nil, nil //nolint:nilnil // nil manager = NoPrivacy default
	case "delay":
		return core.NewDelayManager(core.NewContentSpecificDelay())
	case "random":
		alpha, err := core.GeometricAlphaForEpsilon(k, eps)
		if err != nil {
			return nil, err
		}
		dist, err := core.NewGeometricUnbounded(alpha)
		if err != nil {
			return nil, err
		}
		return core.NewRandomCache(dist, rng)
	default:
		return nil, fmt.Errorf("unknown -manager %q (none|delay|random)", kind)
	}
}

// randomSeed draws the executor's seed from entropy (crypto/rand in
// Start): its RNG makes the nonces of locally originated interests, which
// should not repeat from one start to the next. It is not good enough
// for Random-Cache — math/rand keeps a seed modulo 2³¹−1, so a seeded
// source is one of about two thousand million enumerable streams
// however many bits the seed had; thresholds come from entropySource.
func randomSeed(entropy io.Reader) (int64, error) {
	var raw [8]byte
	if _, err := io.ReadFull(entropy, raw[:]); err != nil {
		return 0, fmt.Errorf("seeding the executor: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(raw[:])), nil
}

// entropySource is a rand.Source64 that hands out entropy (crypto/rand in
// Start) as it comes, with no seed and no state to reconstruct.
// Random-Cache's thresholds k_C are drawn from it: Algorithm 1's
// (k, ε, δ) guarantee assumes an adversary cannot predict them, which
// rules out a stream that can be enumerated. It is not safe for
// concurrent use.
type entropySource struct {
	entropy *bufio.Reader
	raw     [8]byte
	// fatal receives a failed read. The daemon cannot go on without
	// thresholds, and Source64 has no error to return; Start's fatal
	// exits the process.
	fatal func(error)
}

// entropyBuffer is how much entropySource reads ahead: 32 draws for one
// read of the kernel's generator.
const entropyBuffer = 256

func newEntropySource(entropy io.Reader, fatal func(error)) *entropySource {
	return &entropySource{entropy: bufio.NewReaderSize(entropy, entropyBuffer), fatal: fatal}
}

func (s *entropySource) Uint64() uint64 {
	if _, err := io.ReadFull(s.entropy, s.raw[:]); err != nil {
		s.fatal(fmt.Errorf("drawing a Random-Cache threshold: %w", err))
	}
	return binary.LittleEndian.Uint64(s.raw[:])
}

func (s *entropySource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed does nothing: there is no stream to restart.
func (s *entropySource) Seed(int64) {}

// buildStore assembles the daemon's Content Store: an LRU store of
// capacity objects, over — when tierDir is set — a file-backed second
// tier logging to tierDir/cs.log. The caller closes the store.
func buildStore(capacity int, tierDir string, tierCapacity int) (*cache.Store, error) {
	if tierDir == "" {
		if tierCapacity != 0 {
			return nil, fmt.Errorf("-tier-capacity %d needs -tier-dir", tierCapacity)
		}
		return cache.NewStore(capacity, cache.NewLRU())
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("-tier-dir needs a positive -capacity for the RAM front, got %d", capacity)
	}
	if err := os.MkdirAll(tierDir, 0o755); err != nil {
		return nil, err
	}
	file, err := tiered.OpenFileTier(tiered.FileTierConfig{
		Path:     filepath.Join(tierDir, "cs.log"),
		Capacity: tierCapacity,
	})
	if err != nil {
		return nil, err
	}
	store, err := cache.NewTieredStore(capacity, cache.NewLRU(), file)
	if err != nil {
		file.Close() //nolint:errcheck // construction failed; best-effort release
		return nil, err
	}
	return store, nil
}

// reportClose waits for face to shut down and prints its send counters:
// batching (packets per write) and drops to a peer that stopped reading.
// Close waits for every report.
func (d *Daemon) reportClose(face *netface.Face) {
	d.faces.Add(1)
	go func() {
		defer d.faces.Done()
		<-face.Done()
		fmt.Printf("ndnd: face %d closed: %s\n", face.ID(), face.Stats())
	}()
}
