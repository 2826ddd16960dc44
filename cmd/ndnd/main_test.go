package main

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

func TestRouteFlagsParsing(t *testing.T) {
	var r routeFlags
	if err := r.Set("/p=127.0.0.1:6363"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("/cnn/news=upstream:1234"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 {
		t.Fatalf("routes = %d", len(r))
	}
	if r[0].prefix.String() != "/p" || r[0].addr != "127.0.0.1:6363" {
		t.Errorf("route 0 = %+v", r[0])
	}
	if got := r.String(); got != "/p=127.0.0.1:6363,/cnn/news=upstream:1234" {
		t.Errorf("String() = %q", got)
	}
}

func TestRouteFlagsRejectsMalformed(t *testing.T) {
	var r routeFlags
	for _, bad := range []string{"no-equals", "not-a-prefix=host:1", "=host:1"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

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

// TestTieredDaemonServesFromFileTier is the daemon e2e: a consumer and a
// producer talk to a file-tier-backed ndnd store over loopback TCP. The
// consumer populates the cache past the RAM front's capacity (evicting
// the first object to disk), then re-fetches it; the daemon must answer
// from the file tier without consulting the producer.
func TestTieredDaemonServesFromFileTier(t *testing.T) {
	exec := rt.New(9)
	t.Cleanup(exec.Close)
	store, err := buildStore(2, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	daemon, err := fwd.New(fwd.Config{Name: "ndnd", Sim: exec, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	newPeer := func(name string) (*fwd.Forwarder, *rt.Executor) {
		peerExec := rt.New(int64(len(name)))
		t.Cleanup(peerExec.Close)
		peer, err := fwd.New(fwd.Config{Name: name, Sim: peerExec})
		if err != nil {
			t.Fatal(err)
		}
		return peer, peerExec
	}
	producerFwd, _ := newPeer("producer")
	consumerFwd, _ := newPeer("consumer")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *netface.Face, 2)
	listener, err := netface.Listen(daemon, ln, func(face *netface.Face) { accepted <- face })
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	prefix := ndn.MustParseName("/p")
	producerSide, err := netface.Dial(producerFwd, "tcp", listener.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer producerSide.Close()
	producerFace := <-accepted
	if err := netface.RunOn(daemon, func() error {
		return daemon.RegisterPrefix(prefix, producerFace.ID())
	}); err != nil {
		t.Fatal(err)
	}

	var producer *fwd.Producer
	if err := netface.RunOn(producerFwd, func() error {
		var err error
		producer, err = fwd.NewProducer(producerFwd, prefix, nil)
		if err != nil {
			return err
		}
		for _, suffix := range []string{"a", "b", "c"} {
			d, err := ndn.NewData(ndn.MustParseName("/p/"+suffix), []byte("payload "+suffix))
			if err != nil {
				return err
			}
			if err := producer.Publish(d); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	consumerSide, err := netface.Dial(consumerFwd, "tcp", listener.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer consumerSide.Close()
	<-accepted
	var consumer *fwd.Consumer
	if err := netface.RunOn(consumerFwd, func() error {
		if err := consumerFwd.RegisterPrefix(prefix, consumerSide.ID()); err != nil {
			return err
		}
		var err error
		consumer, err = fwd.NewConsumer(consumerFwd)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	fetch := func(name string) fwd.FetchResult {
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

	// Populate: /p/a lands in the RAM front, then /p/b and /p/c overflow
	// it (capacity 2), demoting /p/a to the file tier.
	fetch("/p/a")
	fetch("/p/b")
	fetch("/p/c")
	storeState := func() (ramLen, diskLen int, diskHits, promotions, served uint64) {
		if err := netface.RunOn(daemon, func() error {
			ramLen, diskLen = store.RAMLen(), store.SecondLen()
			diskHits, promotions = store.DiskHits(), store.Promotions()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := netface.RunOn(producerFwd, func() error {
			served = producer.Served()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return
	}
	ramLen, diskLen, diskHits, _, served := storeState()
	if ramLen != 2 || diskLen != 1 {
		t.Fatalf("after populate: RAM %d / disk %d objects, want 2 / 1", ramLen, diskLen)
	}
	if diskHits != 0 {
		t.Fatalf("after populate: %d disk hits before the re-fetch", diskHits)
	}
	if served != 3 {
		t.Fatalf("after populate: producer served %d, want 3", served)
	}

	// The re-fetch must be answered from the file tier: same payload,
	// one disk hit and a promotion, and no fourth producer serve.
	res := fetch("/p/a")
	if string(res.Data.Payload) != "payload a" {
		t.Errorf("re-fetch payload = %q", res.Data.Payload)
	}
	_, _, diskHits, promotions, served := storeState()
	if diskHits != 1 || promotions != 1 {
		t.Errorf("re-fetch: %d disk hits / %d promotions, want 1 / 1", diskHits, promotions)
	}
	if served != 3 {
		t.Errorf("producer served %d interests, want 3 (file tier absorbed the re-fetch)", served)
	}
}
