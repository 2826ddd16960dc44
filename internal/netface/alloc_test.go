package netface

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/rt"
)

// These tests pin what ndnd's own receive and forward path allocates per
// packet: a router on an rt.Executor with netface faces, driven over
// net.Pipe by a peer that writes pre-encoded packets and reads the
// answers into buffers it reuses, so every allocation counted is the
// router's. Interests are decoded borrowed from the face's receive
// chunk and cost nothing to read; an arriving Data is cloned into one
// owned buffer (two allocations) because the store keeps it.

// pipeEnd is one end of net.Pipe whose write deadline is a no-op. A pipe
// arms a runtime timer for every deadline, two allocations a TCP
// socket's poller does not make, which would count against the router.
type pipeEnd struct{ net.Conn }

func (pipeEnd) SetWriteDeadline(time.Time) error { return nil }

// allocRouter is a caching router with a consumer face and a producer
// face over pipes, with the far end of each held by the test.
type allocRouter struct {
	f              *fwd.Forwarder
	consumer, prod net.Conn
}

func newAllocRouter(t *testing.T, capacity int) *allocRouter {
	t.Helper()
	exec := rt.New(7)
	t.Cleanup(exec.Close)
	f, err := fwd.New(fwd.Config{Name: "R", Sim: exec, Store: cache.MustNewStore(capacity, cache.NewLRU())})
	if err != nil {
		t.Fatal(err)
	}
	r := &allocRouter{f: f}
	attach := func() (*Face, net.Conn) {
		near, far := net.Pipe()
		face, err := Attach(f, pipeEnd{near}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			face.Close()
			far.Close()
		})
		return face, far
	}
	_, r.consumer = attach()
	var up *Face
	up, r.prod = attach()
	if err := RunOn(f, func() error { return f.RegisterPrefix(ndn.MustParseName("/p"), up.ID()) }); err != nil {
		t.Fatal(err)
	}
	return r
}

// expect reads an answer of want's length from conn into buf, failing
// the test unless it equals want.
func expect(t *testing.T, conn net.Conn, want, buf []byte) {
	if _, err := io.ReadFull(conn, buf[:len(want)]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(want)], want) {
		t.Fatalf("read %x, want %x", buf[:len(want)], want)
	}
}

// send writes wire to conn.
func send(t *testing.T, conn net.Conn, wire []byte) {
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// A cached fetch through the router costs one allocation: the header copy
// the hit is served in.
func TestRouterHitAllocatesTheServeCopy(t *testing.T) {
	r := newAllocRouter(t, 16)
	d, err := ndn.NewData(ndn.MustParseName("/p/hot"), bytes.Repeat([]byte{'h'}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := RunOn(r.f, func() error {
		r.f.Store().Insert(d, r.f.Sim().Now(), time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	interest, answer := ndn.EncodeInterest(ndn.NewInterest(d.Name, 1)), ndn.EncodeData(d)
	buf := make([]byte, len(answer))
	n := testing.AllocsPerRun(200, func() {
		send(t, r.consumer, interest)
		expect(t, r.consumer, answer, buf)
	})
	t.Logf("cached fetch: %.2f allocs in the router", n)
	if n != 1 {
		t.Errorf("cached fetch: the router allocates %.2f per fetch, want 1 (the serve copy)", n)
	}
}

// A fetch the router forwards costs at most four allocations: the
// upstream interest copy, the arriving Data's clone (struct and buffer)
// and the downstream Data header copy. The PIT entry's name is copied
// into bytes its table slot keeps, and the store recycles its entries,
// so neither allocates once warm.
func TestRouterMissAllocatesAtMostFour(t *testing.T) {
	const capacity, names = 16, 64
	r := newAllocRouter(t, capacity)
	type fetch struct{ interest, data []byte }
	ring := make([]fetch, names)
	for i := range ring {
		d, err := ndn.NewData(ndn.MustParseName(fmt.Sprintf("/p/miss/%d", i)), bytes.Repeat([]byte{'m'}, 1024))
		if err != nil {
			t.Fatal(err)
		}
		ring[i] = fetch{ndn.EncodeInterest(ndn.NewInterest(d.Name, uint64(i)+1)), ndn.EncodeData(d)}
	}
	buf := make([]byte, 2048)
	next := 0
	miss := func() {
		f := ring[next%names]
		next++
		send(t, r.consumer, f.interest)
		// The producer end answers what the router forwarded.
		expect(t, r.prod, f.interest, buf)
		send(t, r.prod, f.data)
		expect(t, r.consumer, f.data, buf)
	}
	// Warm up: the store full and evicting, every table slot's name
	// buffer grown.
	for range 2 * names {
		miss()
	}
	n := testing.AllocsPerRun(200, miss)
	t.Logf("missed fetch: %.2f allocs in the router", n)
	if n > 4 {
		t.Errorf("missed fetch: the router allocates %.2f per fetch, want <= 4", n)
	}
}
