package netface

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/rt"
)

// newRTForwarder builds a forwarder on a fresh real-time executor.
func newRTForwarder(t *testing.T, name string, withStore bool) (*fwd.Forwarder, *rt.Executor) {
	t.Helper()
	exec := rt.New(int64(len(name)) + 42)
	t.Cleanup(exec.Close)
	cfg := fwd.Config{Name: name, Sim: exec}
	if withStore {
		cfg.Store = cache.MustNewStore(1024, cache.NewLRU())
	}
	f, err := fwd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, exec
}

// fetchOverRT performs a synchronous fetch with a real-time deadline.
func fetchOverRT(t *testing.T, consumer *fwd.Consumer, name ndn.Name, lifetime time.Duration) fwd.FetchResult {
	t.Helper()
	interest := ndn.NewInterest(name, 0)
	interest.Lifetime = lifetime
	resCh := make(chan fwd.FetchResult, 1)
	consumer.Fetch(interest, func(r fwd.FetchResult) { resCh <- r })
	select {
	case res := <-resCh:
		return res
	case <-time.After(lifetime + 2*time.Second):
		t.Fatal("fetch never resolved")
		return fwd.FetchResult{}
	}
}

func TestAttachValidation(t *testing.T) {
	f, _ := newRTForwarder(t, "x", false)
	if _, err := Attach(nil, nil, nil); err == nil {
		t.Error("nil forwarder accepted")
	}
	if _, err := Attach(f, nil, nil); err == nil {
		t.Error("nil conn accepted")
	}
}

func TestFetchOverPipe(t *testing.T) {
	// consumer host ←pipe→ producer host, both on real-time executors.
	consumerFwd, _ := newRTForwarder(t, "consumer", false)
	producerFwd, _ := newRTForwarder(t, "producer", false)

	left, right := net.Pipe()
	consumerFace, err := Attach(consumerFwd, left, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer consumerFace.Close()
	producerFace, err := Attach(producerFwd, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer producerFace.Close()

	prefix := ndn.MustParseName("/p")
	if err := RunOn(consumerFwd, func() error {
		return consumerFwd.RegisterPrefix(prefix, consumerFace.ID())
	}); err != nil {
		t.Fatal(err)
	}
	var producer *fwd.Producer
	if err := RunOn(producerFwd, func() error {
		var err error
		producer, err = fwd.NewProducer(producerFwd, prefix, nil)
		if err != nil {
			return err
		}
		d, err := ndn.NewData(ndn.MustParseName("/p/hello"), []byte("over the wire"))
		if err != nil {
			return err
		}
		return producer.Publish(d)
	}); err != nil {
		t.Fatal(err)
	}
	var consumer *fwd.Consumer
	if err := RunOn(consumerFwd, func() error {
		var err error
		consumer, err = fwd.NewConsumer(consumerFwd)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	res := fetchOverRT(t, consumer, ndn.MustParseName("/p/hello"), 2*time.Second)
	if res.TimedOut {
		t.Fatal("fetch over pipe timed out")
	}
	if string(res.Data.Payload) != "over the wire" {
		t.Errorf("payload = %q", res.Data.Payload)
	}
	if res.RTT <= 0 {
		t.Errorf("RTT = %v", res.RTT)
	}
}

// tcpTopology is consumer ─TCP─ router(with cache) ─TCP─ producer: a
// real three-process-shaped NDN deployment in one test, exercising
// listener, dialer, caching and the full pipeline over loopback.
type tcpTopology struct {
	router      *fwd.Forwarder
	producerFwd *fwd.Forwarder
	producer    *fwd.Producer
	consumer    *fwd.Consumer
}

// newTCPTopology wires the three hosts up under prefix /cnn, with a
// cache and no privacy policy at the router, and publishes the given
// content at the producer.
func newTCPTopology(t *testing.T, publish ...*ndn.Data) *tcpTopology {
	t.Helper()
	top := &tcpTopology{}
	top.router, _ = newRTForwarder(t, "router", true)
	consumerFwd, _ := newRTForwarder(t, "consumer", false)
	top.producerFwd, _ = newRTForwarder(t, "producer", false)

	prefix := ndn.MustParseName("/cnn")

	// The router listens; when the producer dials in, the router routes
	// the prefix toward that face.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Face, 2)
	listener, err := Listen(top.router, ln, func(face *Face) {
		accepted <- face
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() })

	// Producer dials the router and registers nothing (it only answers).
	producerSide, err := Dial(top.producerFwd, "tcp", listener.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { producerSide.Close() })
	producerRouterFace := <-accepted
	if err := RunOn(top.router, func() error {
		return top.router.RegisterPrefix(prefix, producerRouterFace.ID())
	}); err != nil {
		t.Fatal(err)
	}

	if err := RunOn(top.producerFwd, func() error {
		var err error
		top.producer, err = fwd.NewProducer(top.producerFwd, prefix, nil)
		if err != nil {
			return err
		}
		for _, d := range publish {
			if err := top.producer.Publish(d); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Consumer dials the router.
	consumerSide, err := Dial(consumerFwd, "tcp", listener.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumerSide.Close() })
	<-accepted // the router's face toward the consumer
	if err := RunOn(consumerFwd, func() error {
		if err := consumerFwd.RegisterPrefix(prefix, consumerSide.ID()); err != nil {
			return err
		}
		var err error
		top.consumer, err = fwd.NewConsumer(consumerFwd)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return top
}

// served reads how many interests reached the producer.
func (top *tcpTopology) served(t *testing.T) uint64 {
	t.Helper()
	var served uint64
	if err := RunOn(top.producerFwd, func() error {
		served = top.producer.Served()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return served
}

func mustData(t *testing.T, name string, payload []byte) *ndn.Data {
	t.Helper()
	d, err := ndn.NewData(ndn.MustParseName(name), payload)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTCPRouterTopology(t *testing.T) {
	top := newTCPTopology(t, mustData(t, "/cnn/news", []byte("tcp payload")))

	first := fetchOverRT(t, top.consumer, ndn.MustParseName("/cnn/news"), 2*time.Second)
	if first.TimedOut {
		t.Fatal("first fetch timed out")
	}
	second := fetchOverRT(t, top.consumer, ndn.MustParseName("/cnn/news"), 2*time.Second)
	if second.TimedOut {
		t.Fatal("second fetch timed out")
	}
	if string(second.Data.Payload) != "tcp payload" {
		t.Errorf("payload = %q", second.Data.Payload)
	}
	// The second fetch must be served by the router's cache.
	waitForStat(t, top.router, func(s fwd.Stats) bool { return s.CacheHits >= 1 })
	if served := top.served(t); served != 1 {
		t.Errorf("producer served %d interests, want 1 (cache absorbed the second)", served)
	}
}

// TestCachedPayloadSurvivesLaterReads: a router caches the bytes a face
// reads — the Content Store adopts a received Data's payload without
// copying it — so the face's reader must never reuse a packet's buffer.
// The peer on the far end of a pipe answers four interests with
// same-sized Data; the first one cached must still hold its own bytes
// after the face has read the other three.
func TestCachedPayloadSurvivesLaterReads(t *testing.T) {
	f, _ := newRTForwarder(t, "cache", true)
	left, right := net.Pipe()
	t.Cleanup(func() { right.Close() })
	face, err := Attach(f, left, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { face.Close() })
	var consumer *fwd.Consumer
	if err := RunOn(f, func() error {
		if err := f.RegisterPrefix(ndn.MustParseName("/c"), face.ID()); err != nil {
			return err
		}
		consumer, err = fwd.NewConsumer(f)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const objects = 4
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 256) }
	peerDone := make(chan error, 1)
	go func() {
		reader, writer := ndn.NewPacketReader(right), ndn.NewPacketWriter(right)
		for i := 0; i < objects; i++ {
			pkt, err := reader.Next()
			if err != nil || pkt.Interest == nil {
				peerDone <- fmt.Errorf("peer read %d: %+v, %v", i, pkt, err)
				return
			}
			d, err := ndn.NewData(pkt.Interest.Name, payload(i))
			if err == nil {
				err = writer.Write(ndn.Packet{Data: d})
			}
			if err != nil {
				peerDone <- err
				return
			}
		}
		peerDone <- nil
	}()

	var first fwd.FetchResult
	for i := 0; i < objects; i++ {
		res := fetchOverRT(t, consumer, ndn.MustParseName(fmt.Sprintf("/c/%d", i)), 2*time.Second)
		if res.TimedOut || !bytes.Equal(res.Data.Payload, payload(i)) {
			t.Fatalf("fetch %d: %+v", i, res)
		}
		if i == 0 {
			first = res
		}
	}
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
	if err := RunOn(f, func() error {
		entry, found := f.Store().Exact(first.Data.Name, f.Sim().Now())
		switch {
		case !found:
			return errors.New("the first object is not cached")
		case &entry.Data.Payload[0] != &first.Data.Payload[0]:
			return errors.New("the store copied the received payload: the consumer's Data does not share it")
		case !bytes.Equal(entry.Data.Payload, payload(0)):
			return fmt.Errorf("cached payload changed to %q after three more reads", entry.Data.Payload[:8])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// waitForStat polls a forwarder stat through its executor.
func waitForStat(t *testing.T, f *fwd.Forwarder, ok func(fwd.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var s fwd.Stats
		done := make(chan struct{})
		f.Sim().Schedule(0, func() { s = f.Stats(); close(done) })
		<-done
		if ok(s) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("stat condition never met")
}

func TestFaceCloseDetaches(t *testing.T) {
	aFwd, _ := newRTForwarder(t, "a", false)
	bFwd, _ := newRTForwarder(t, "b", false)
	left, right := net.Pipe()
	var closeErr error
	closed := make(chan struct{})
	aFace, err := Attach(aFwd, left, func(err error) {
		closeErr = err
		close(closed)
	})
	if err != nil {
		t.Fatal(err)
	}
	bFace, err := Attach(bFwd, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bFace.Close()

	if err := aFace.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("onClose never ran")
	}
	if closeErr != nil {
		t.Errorf("local close reported error: %v", closeErr)
	}
	select {
	case <-aFace.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed")
	}
	if err := aFace.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestRemoteCloseReported(t *testing.T) {
	aFwd, _ := newRTForwarder(t, "a", false)
	bFwd, _ := newRTForwarder(t, "b", false)
	left, right := net.Pipe()
	closed := make(chan error, 1)
	if _, err := Attach(aFwd, left, func(err error) { closed <- err }); err != nil {
		t.Fatal(err)
	}
	bFace, err := Attach(bFwd, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = bFace.Close() // remote side goes away
	select {
	case err := <-closed:
		if err == nil {
			t.Log("remote close surfaced as clean EOF") // net.Pipe yields io.EOF→nil-able; accept either
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote close never noticed")
	}
}

func TestGarbageOnWireClosesFace(t *testing.T) {
	f, _ := newRTForwarder(t, "victim", false)
	left, right := net.Pipe()
	closed := make(chan error, 1)
	if _, err := Attach(f, left, func(err error) { closed <- err }); err != nil {
		t.Fatal(err)
	}
	go func() {
		// A complete TLV with an unknown outer type (0x42, length 3).
		_, _ = right.Write([]byte{0x42, 0x03, 'z', 'z', 'z'})
	}()
	select {
	case err := <-closed:
		if err == nil {
			t.Error("garbage close reported no cause")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("garbage never killed the face")
	}
}

// liveFaces reads the listener's face set.
func liveFaces(l *Listener) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.faces)
}

// A long-running daemon must not retain a Face (with its bufio.Writer
// and closed net.Conn) per connection ever accepted: the listener's set
// holds live faces only.
func TestListenerFaceSetDrains(t *testing.T) {
	f, _ := newRTForwarder(t, "daemon", false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Face, 1)
	l, err := Listen(f, ln, func(face *Face) { accepted <- face })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const cycles = 20
	for i := 0; i < cycles; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		face := <-accepted
		if i%2 == 0 {
			_ = conn.Close() // remote hang-up
		} else {
			_ = face.Close() // local close
		}
		select {
		case <-face.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("cycle %d: face never shut down", i)
		}
		_ = conn.Close()
	}
	// The prune runs right after Done closes, on the reader goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for liveFaces(l) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := liveFaces(l); n != 0 {
		t.Errorf("listener retains %d faces after %d connect/close cycles, want 0", n, cycles)
	}

	// A connection that stays open stays in the set until it closes.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted
	if n := liveFaces(l); n != 1 {
		t.Errorf("listener holds %d faces with one connection open, want 1", n)
	}
}
