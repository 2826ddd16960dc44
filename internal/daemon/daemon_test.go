package daemon

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

func TestBuildManager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		kind    string
		wantNil bool
		wantErr bool
	}{
		{"none", true, false},
		{"delay", false, false},
		{"random", false, false},
		{"bogus", false, true},
	}
	for _, tc := range cases {
		m, err := buildManager(tc.kind, 5, 0.005, rng)
		if tc.wantErr != (err != nil) {
			t.Errorf("%s: err = %v", tc.kind, err)
			continue
		}
		if err == nil && tc.wantNil != (m == nil) {
			t.Errorf("%s: manager = %v", tc.kind, m)
		}
	}
	if _, err := buildManager("random", 0, 0.005, rng); err == nil {
		t.Error("k=0 accepted for random manager")
	}
}

func TestRandomSeed(t *testing.T) {
	a, err := randomSeed(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := randomSeed(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("seeds from different entropy are equal (%d): not every byte is used", a)
	}
	if _, err := randomSeed(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short entropy read accepted; start-up must fail instead")
	}
	first, err := randomSeed(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	second, err := randomSeed(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Errorf("two crypto/rand seeds are equal (%d)", first)
	}
}

// TestEntropySource: thresholds come straight from entropy — all 64 bits
// of it, with no seed in between for math/rand to fold to 31 bits — and
// running out of entropy is reported, not papered over.
func TestEntropySource(t *testing.T) {
	fail := func(err error) { t.Fatalf("crypto/rand: %v", err) }
	a, b := newEntropySource(crand.Reader, fail), newEntropySource(crand.Reader, fail)
	var all uint64
	same := 0
	for i := 0; i < 64; i++ {
		x, y := a.Uint64(), b.Uint64()
		if x == y {
			same++
		}
		all |= x
		if v := a.Int63(); v < 0 {
			t.Fatalf("Int63 = %d", v)
		}
	}
	if same != 0 {
		t.Errorf("two entropy sources agreed on %d of 64 draws", same)
	}
	if all>>63 == 0 {
		t.Error("64 draws never set the top bit: Uint64 is not 64 bits wide")
	}

	// Bytes come out in the order they went in, across the read-ahead,
	// and Seed has no stream to restart.
	stream := make([]byte, entropyBuffer+16)
	for i := range stream {
		stream[i] = byte(i)
	}
	var failure error
	fixed := newEntropySource(bytes.NewReader(stream), func(err error) { failure = err })
	for i := 0; i < len(stream)/8; i++ {
		fixed.Seed(1)
		if got, want := fixed.Uint64(), binary.LittleEndian.Uint64(stream[8*i:]); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if failure != nil {
		t.Fatalf("failure before the entropy ran out: %v", failure)
	}
	fixed.Uint64()
	if !errors.Is(failure, io.EOF) {
		t.Errorf("exhausted entropy reported %v, want io.EOF", failure)
	}
}

func TestBuildStoreValidation(t *testing.T) {
	if _, err := buildStore(0, t.TempDir(), 0); err == nil {
		t.Error("tiered store with capacity 0 accepted")
	}
	if _, err := buildStore(8, t.TempDir(), -5); err == nil {
		t.Error("negative -tier-capacity accepted")
	}
	_, err := buildStore(8, "", 5)
	if err == nil || !strings.Contains(err.Error(), "-tier-capacity") || !strings.Contains(err.Error(), "-tier-dir") {
		t.Errorf("-tier-capacity without -tier-dir: err = %v, want one naming both flags", err)
	}
	store, err := buildStore(8, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		t.Fatal("flat store missing")
	}
	if err := store.Close(); err != nil {
		t.Errorf("flat-store close: %v", err)
	}
}

// newHost builds a forwarder on its own real-time executor, closed with
// the test.
func newHost(t *testing.T, name string) *fwd.Forwarder {
	t.Helper()
	exec := rt.New(int64(len(name)))
	t.Cleanup(exec.Close)
	host, err := fwd.New(fwd.Config{Name: name, Sim: exec})
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// upstream is a producer host listening on loopback: what a daemon's
// Route dials, as ndnd is deployed.
type upstream struct {
	host     *fwd.Forwarder
	producer *fwd.Producer
	addr     string
}

func newUpstream(t *testing.T, prefix ndn.Name, publish ...*ndn.Data) *upstream {
	t.Helper()
	up := &upstream{host: newHost(t, "producer")}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listener, err := netface.Listen(up.host, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() })
	up.addr = listener.Addr().String()
	if err := netface.RunOn(up.host, func() error {
		var err error
		if up.producer, err = fwd.NewProducer(up.host, prefix, nil); err != nil {
			return err
		}
		for _, d := range publish {
			if err := up.producer.Publish(d); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return up
}

// served reads how many interests reached the producer.
func (up *upstream) served(t *testing.T) uint64 {
	t.Helper()
	var served uint64
	if err := netface.RunOn(up.host, func() error {
		served = up.producer.Served()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return served
}

// startDaemon starts cfg's router, closed with the test.
func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	})
	return d
}

// dialConsumer connects host to the router at addr, routes prefix there
// and returns a consumer on host.
func dialConsumer(t *testing.T, host *fwd.Forwarder, addr string, prefix ndn.Name) *fwd.Consumer {
	t.Helper()
	face, err := netface.Dial(host, "tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { face.Close() })
	var consumer *fwd.Consumer
	if err := netface.RunOn(host, func() error {
		if err := host.RegisterPrefix(prefix, face.ID()); err != nil {
			return err
		}
		var err error
		consumer, err = fwd.NewConsumer(host)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return consumer
}

// fetch fetches name with a two-second lifetime and fails the test if it
// times out.
func fetch(t *testing.T, consumer *fwd.Consumer, name string) fwd.FetchResult {
	t.Helper()
	interest := ndn.NewInterest(ndn.MustParseName(name), 0)
	interest.Lifetime = 2 * time.Second
	resCh := make(chan fwd.FetchResult, 1)
	consumer.Fetch(interest, func(r fwd.FetchResult) { resCh <- r })
	select {
	case res := <-resCh:
		if res.TimedOut {
			t.Fatalf("fetch %s timed out", name)
		}
		return res
	case <-time.After(4 * time.Second):
		t.Fatalf("fetch %s never resolved", name)
		return fwd.FetchResult{}
	}
}

func mustData(t *testing.T, name string, payload []byte) *ndn.Data {
	t.Helper()
	d, err := ndn.NewData(ndn.MustParseName(name), payload)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tieredConfig is a daemon on loopback whose RAM front holds two objects
// over a file tier in a fresh directory, routing /p to upstream.
func tieredConfig(t *testing.T, addr string) Config {
	return Config{
		Listen:   "127.0.0.1:0",
		Capacity: 2,
		Manager:  "none",
		TierDir:  t.TempDir(),
		Routes:   []Route{{Prefix: ndn.MustParseName("/p"), Addr: addr}},
	}
}

// TestTieredDaemonServesFromFileTier is the daemon e2e: a consumer and a
// producer talk to a file-tier-backed daemon over loopback TCP. The
// consumer populates the cache past the RAM front's capacity (evicting
// the first object to disk), then re-fetches it; the daemon must answer
// from the file tier without consulting the producer.
func TestTieredDaemonServesFromFileTier(t *testing.T) {
	prefix := ndn.MustParseName("/p")
	up := newUpstream(t, prefix,
		mustData(t, "/p/a", []byte("payload a")),
		mustData(t, "/p/b", []byte("payload b")),
		mustData(t, "/p/c", []byte("payload c")))
	d := startDaemon(t, tieredConfig(t, up.addr))
	consumer := dialConsumer(t, newHost(t, "consumer"), d.Addr().String(), prefix)

	// Populate: /p/a lands in the RAM front, then /p/b and /p/c overflow
	// it (capacity 2), demoting /p/a to the file tier.
	fetch(t, consumer, "/p/a")
	fetch(t, consumer, "/p/b")
	fetch(t, consumer, "/p/c")
	storeState := func() (ramLen, diskLen int, diskHits, promotions uint64) {
		if err := netface.RunOn(d.Forwarder(), func() error {
			store := d.Forwarder().Store()
			ramLen, diskLen = store.RAMLen(), store.SecondLen()
			diskHits, promotions = store.DiskHits(), store.Promotions()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return
	}
	ramLen, diskLen, diskHits, _ := storeState()
	if ramLen != 2 || diskLen != 1 {
		t.Fatalf("after populate: RAM %d / disk %d objects, want 2 / 1", ramLen, diskLen)
	}
	if diskHits != 0 {
		t.Fatalf("after populate: %d disk hits before the re-fetch", diskHits)
	}
	if served := up.served(t); served != 3 {
		t.Fatalf("after populate: producer served %d, want 3", served)
	}

	// The re-fetch must be answered from the file tier: same payload,
	// one disk hit and a promotion, and no fourth producer serve.
	res := fetch(t, consumer, "/p/a")
	if string(res.Data.Payload) != "payload a" {
		t.Errorf("re-fetch payload = %q", res.Data.Payload)
	}
	_, _, diskHits, promotions := storeState()
	if diskHits != 1 || promotions != 1 {
		t.Errorf("re-fetch: %d disk hits / %d promotions, want 1 / 1", diskHits, promotions)
	}
	if served := up.served(t); served != 3 {
		t.Errorf("producer served %d interests, want 3 (file tier absorbed the re-fetch)", served)
	}
}

// TestCloseWithFetchesInFlight: closing a tiered daemon while packets
// are moving through it returns nil, again on a second call, and leaves
// none of its goroutines behind — its faces, its peers' faces on the
// other end of them, its listener and its executor all exit.
func TestCloseWithFetchesInFlight(t *testing.T) {
	prefix := ndn.MustParseName("/p")
	const fetches = 50
	var publish []*ndn.Data
	for i := 0; i < fetches; i++ {
		publish = append(publish, mustData(t, fmt.Sprintf("/p/%d", i), make([]byte, 1024)))
	}
	up := newUpstream(t, prefix, publish...)
	consumerHost := newHost(t, "consumer")
	base := settledGoroutines()

	d, err := Start(tieredConfig(t, up.addr))
	if err != nil {
		t.Fatal(err)
	}
	consumer := dialConsumer(t, consumerHost, d.Addr().String(), prefix)
	for i := 0; i < fetches; i++ {
		consumer.FetchName(ndn.MustParseName(fmt.Sprintf("/p/%d", i)), func(fwd.FetchResult) {})
	}
	for call := 1; call <= 2; call++ {
		if err := d.Close(); err != nil {
			t.Errorf("Close call %d: %v", call, err)
		}
	}
	if left := goroutinesBackTo(base); left > 0 {
		t.Errorf("%d goroutines left after Close", left)
	}
}

// TestFailedStartReleasesEverything: a Start that fails after it has
// opened the executor, the tier log and (in the second case) an upstream
// face closes them all again.
func TestFailedStartReleasesEverything(t *testing.T) {
	up := newUpstream(t, ndn.MustParseName("/p"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closedPort := ln.Addr().String()
	ln.Close()
	base := settledGoroutines()

	refused := tieredConfig(t, closedPort)
	inUse := tieredConfig(t, up.addr)
	inUse.Listen = up.addr
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"route to a closed port", refused},
		{"listen address in use", inUse},
	} {
		if d, err := Start(tc.cfg); err == nil {
			d.Close()
			t.Errorf("%s: Start succeeded", tc.name)
		}
		if left := goroutinesBackTo(base); left > 0 {
			t.Errorf("%s: %d goroutines left after the failed Start", tc.name, left)
		}
	}
}

// goroutinesBackTo waits for the goroutine count to come back down to
// base — closed executors and faces exit asynchronously — and returns
// how many are left over; it gives up after five seconds.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// settledGoroutines returns the goroutine count once it has stopped
// moving (what earlier tests closed exits asynchronously).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next == n {
			return n
		}
		n = next
	}
	return n
}
