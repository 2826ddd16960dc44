package netface

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

// waitForFace polls a face's send counters until ok holds.
func waitForFace(t *testing.T, fa *Face, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := fa.Stats()
		if ok(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("face counters never got there: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTransmitBatchesOneCallback: packets transmitted inside one executor
// callback leave in order, byte for byte what EncodePacket makes of each,
// in at most two writes. A pipe's Write returns only once the far end has
// read everything, and this test starts reading only after the callback
// has returned — so the writer's first write holds whatever was buffered
// when it woke, and the rest is waiting, complete, when that returns.
func TestTransmitBatchesOneCallback(t *testing.T) {
	f, _ := newRTForwarder(t, "batch", false)
	left, right := net.Pipe()
	t.Cleanup(func() { right.Close() })
	face, err := Attach(f, left, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { face.Close() })

	const packets = 64
	var sent []any
	var want []byte
	for i := 0; i < packets; i++ {
		name := ndn.MustParseName(fmt.Sprintf("/batch/%d", i))
		var p ndn.Packet
		if i%2 == 0 {
			p.Interest = ndn.NewInterest(name, uint64(i))
			sent = append(sent, p.Interest)
		} else {
			p.Data = mustData(t, name.String(), bytes.Repeat([]byte{byte(i)}, 37*i))
			sent = append(sent, p.Data)
		}
		wire, err := ndn.EncodePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, wire...)
	}
	// One packet over ndn.MaxPacketSize, last: it is dropped, and the
	// connection never sees it.
	sent = append(sent, mustData(t, "/batch/huge", make([]byte, ndn.MaxPacketSize)))

	if err := RunOn(f, func() error {
		for _, p := range sent {
			face.transmit(p, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := right.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(right, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the connection carried other bytes than the packets' encodings in transmit order")
	}
	// The writer counts a batch when its Write returns, a moment after
	// the far end has read it.
	s := waitForFace(t, face, func(s Stats) bool { return s.Packets == packets })
	if s.Writes > 2 {
		t.Errorf("%d packets from one callback took %d writes, want at most 2", packets, s.Writes)
	}
	if s.Bytes != uint64(len(want)) || s.Drops != 1 || s.Queued != 0 {
		t.Errorf("counters %+v, want %d bytes, 1 drop, nothing queued", s, len(want))
	}
}

// A stuck peer is a TCP connection into the router that floods it with
// interests for a cached 8 KB object and never reads the answers.
type stuckPeer struct {
	face   *Face      // the router's face toward the peer
	closed chan error // the face's onClose cause
	peer   net.Conn   // the peer's end
}

// newStuckPeer attaches a stuck peer to top's router and floods until the
// router's face toward it sits at its send bound and drops. Every
// interest the peer sent has reached the router's pipeline when it
// returns, so nothing of the flood is still queued for the executor.
func newStuckPeer(t *testing.T, top *tcpTopology) *stuckPeer {
	t.Helper()
	big := ndn.MustParseName("/cnn/big")
	if res := fetchOverRT(t, top.consumer, big, 2*time.Second); res.TimedOut {
		t.Fatal("warm-up fetch timed out")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	conn, err := ln.Accept()
	ln.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Small socket buffers: the kernel holds little of the flood, so the
	// face's own buffer fills after a few hundred answers.
	if err := peer.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	sp := &stuckPeer{closed: make(chan error, 1), peer: peer}
	sp.face, err = Attach(top.router, conn, func(err error) { sp.closed <- err })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.face.Close() })

	received := func() uint64 {
		var n uint64
		if err := RunOn(top.router, func() error { n = top.router.Stats().InterestsReceived; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	want := received()
	const round = 32
	var nonce uint64
	for sp.face.Stats().Drops == 0 {
		if nonce > 1<<16 {
			t.Fatalf("%d answers never filled the face's send buffer: %+v", nonce, sp.face.Stats())
		}
		var burst []byte
		for i := 0; i < round; i++ {
			nonce++
			burst = ndn.AppendInterest(burst, ndn.NewInterest(big, nonce))
		}
		if _, err := peer.Write(burst); err != nil {
			t.Fatal(err)
		}
		want += round
		deadline := time.Now().Add(2 * time.Second)
		for received() < want {
			if time.Now().After(deadline) {
				t.Fatal("the router stopped reading the stuck peer's interests")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if s := sp.face.Stats(); s.Queued > sendBound {
			t.Fatalf("face buffers %d bytes, over its %d-byte bound", s.Queued, sendBound)
		}
	}
	return sp
}

// TestStuckPeerDoesNotStallOtherFaces: with the router's face toward a
// peer that never reads sitting at its send bound, fetches through the
// router's other faces — a cache hit, and a miss that crosses the
// producer's face too — still complete at once.
func TestStuckPeerDoesNotStallOtherFaces(t *testing.T) {
	top := newTCPTopology(t,
		mustData(t, "/cnn/big", make([]byte, 8192)),
		mustData(t, "/cnn/fresh", []byte("fresh")))
	sp := newStuckPeer(t, top)

	for _, name := range []string{"/cnn/big", "/cnn/fresh"} {
		start := time.Now()
		res := fetchOverRT(t, top.consumer, ndn.MustParseName(name), 2*time.Second)
		if res.TimedOut {
			t.Fatalf("fetch %s timed out behind the stuck peer", name)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("fetch %s took %v behind the stuck peer, want under 100ms", name, took)
		}
	}
	s := sp.face.Stats()
	if s.Drops == 0 || s.Queued > sendBound || s.Queued < sendBound-16<<10 {
		t.Errorf("stuck face counters %+v: want drops and about %d bytes queued, never more", s, sendBound)
	}
	select {
	case err := <-sp.closed:
		t.Fatalf("stuck face closed before its write deadline: %v", err)
	default:
	}
}

// TestStuckPeerClosesAtWriteDeadline: a write that makes no progress for
// the write deadline closes the face, and onClose hears why.
func TestStuckPeerClosesAtWriteDeadline(t *testing.T) {
	top := newTCPTopology(t, mustData(t, "/cnn/big", make([]byte, 8192)))
	start := time.Now()
	sp := newStuckPeer(t, top)
	select {
	case err := <-sp.closed:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("stuck face closed with %v, want the write deadline", err)
		}
	case <-time.After(writeDeadline + 5*time.Second):
		t.Fatalf("stuck face still open %v after it stopped draining", time.Since(start))
	}
	if took := time.Since(start); took < writeDeadline {
		t.Errorf("stuck face closed after %v, before its %v write deadline", took, writeDeadline)
	}
	<-sp.face.Done()
	if s := sp.face.Stats(); s.Queued != 0 {
		t.Errorf("closed face still buffers %d bytes", s.Queued)
	}
}
