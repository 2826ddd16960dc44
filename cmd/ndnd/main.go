// Command ndnd is a small NDN forwarding daemon: the library's Content
// Store, PIT, FIB and privacy-preserving cache management running over
// real TCP connections. It exists to show the stack is a usable network
// component, not only a simulator substrate.
//
// Usage:
//
//	ndnd -listen :6363 [-capacity 4096] [-manager none|delay|random]
//	     [-route /prefix=host:port ...] [-k 5] [-eps 0.005]
//	     [-tier-dir DIR] [-tier-capacity N]
//
// Each -route dials the given upstream and installs a FIB entry for the
// prefix. Consumers connect to the listen address; their interests are
// answered from the cache (subject to the selected privacy policy) or
// forwarded along routes.
//
// With -tier-dir the Content Store gains a second tier: -capacity bounds
// the RAM front (exactly: the front is one table, not shards) and
// objects it needs to push out demote to an append-log file store under
// DIR (crash-tolerant: a torn tail is truncated on
// reopen). -tier-capacity bounds the disk tier's object count
// (0 = unlimited). Serving from the disk tier costs a real file read,
// so a tiered daemon exhibits the three-way RAM-hit/disk-hit/miss
// timing channel the simulator experiments measure.
package main

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ndnd: %v\n", err)
		os.Exit(1)
	}
}

// routeFlags accumulates repeated -route prefix=addr flags.
type routeFlags []routeSpec

type routeSpec struct {
	prefix ndn.Name
	addr   string
}

func (r *routeFlags) String() string {
	parts := make([]string, 0, len(*r))
	for _, spec := range *r {
		parts = append(parts, spec.prefix.String()+"="+spec.addr)
	}
	return strings.Join(parts, ",")
}

func (r *routeFlags) Set(value string) error {
	prefixStr, addr, found := strings.Cut(value, "=")
	if !found {
		return fmt.Errorf("route %q must be /prefix=host:port", value)
	}
	prefix, err := ndn.ParseName(prefixStr)
	if err != nil {
		return err
	}
	*r = append(*r, routeSpec{prefix: prefix, addr: addr})
	return nil
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
// run): its RNG makes the nonces of locally originated interests, which
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
// run) as it comes, with no seed and no state to reconstruct.
// Random-Cache's thresholds k_C are drawn from it: Algorithm 1's
// (k, ε, δ) guarantee assumes an adversary cannot predict them, which
// rules out a stream that can be enumerated. It is not safe for
// concurrent use.
type entropySource struct {
	entropy *bufio.Reader
	raw     [8]byte
	// fatal receives a failed read. The daemon cannot go on without
	// thresholds, and Source64 has no error to return; run exits from it.
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
func reportClose(face *netface.Face) {
	<-face.Done()
	fmt.Printf("ndnd: face %d closed: %s\n", face.ID(), face.Stats())
}

func run() error {
	listen := flag.String("listen", ":6363", "TCP listen address")
	capacity := flag.Int("capacity", 4096, "content store capacity (0 = unlimited; RAM-front size with -tier-dir)")
	managerKind := flag.String("manager", "delay", "cache privacy policy: none, delay, random")
	k := flag.Uint64("k", 5, "popularity threshold k for -manager random")
	eps := flag.Float64("eps", 0.005, "privacy parameter ε for -manager random")
	tierDir := flag.String("tier-dir", "", "give the store a file-backed second tier logging under this directory: objects -capacity pushes out of RAM demote to it instead of leaving the cache (empty = no second tier)")
	tierCapacity := flag.Int("tier-capacity", 0, "disk-tier object bound with -tier-dir (0 = unlimited)")
	var routes routeFlags
	flag.Var(&routes, "route", "upstream route /prefix=host:port (repeatable)")
	flag.Parse()

	seed, err := randomSeed(crand.Reader)
	if err != nil {
		return err
	}
	exec := rt.New(seed)
	defer exec.Close()

	thresholds := rand.New(newEntropySource(crand.Reader, func(err error) {
		fmt.Fprintf(os.Stderr, "ndnd: %v\n", err)
		os.Exit(1)
	}))
	manager, err := buildManager(*managerKind, *k, *eps, thresholds)
	if err != nil {
		return err
	}
	store, err := buildStore(*capacity, *tierDir, *tierCapacity)
	if err != nil {
		return err
	}
	defer func() {
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ndnd: store close: %v\n", err)
		}
	}()
	forwarder, err := fwd.New(fwd.Config{
		Name:    "ndnd",
		Sim:     exec,
		Store:   store,
		Manager: manager,
	})
	if err != nil {
		return err
	}

	for _, route := range routes {
		face, err := netface.Dial(forwarder, "tcp", route.addr, func(err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "ndnd: upstream %s closed: %v\n", route.addr, err)
			}
		})
		if err != nil {
			return err
		}
		go reportClose(face)
		if err := netface.RunOn(forwarder, func() error {
			return forwarder.RegisterPrefix(route.prefix, face.ID())
		}); err != nil {
			return err
		}
		fmt.Printf("ndnd: route %s → %s\n", route.prefix, route.addr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	listener, err := netface.Listen(forwarder, ln, func(face *netface.Face) {
		fmt.Printf("ndnd: face %d connected\n", face.ID())
		go reportClose(face)
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := listener.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ndnd: close: %v\n", err)
		}
	}()

	fmt.Printf("ndnd: listening on %s (capacity %d, manager %s)\n",
		listener.Addr(), *capacity, *managerKind)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("ndnd: shutting down")
	return nil
}
