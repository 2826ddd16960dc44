// Package netface bridges a Forwarder to real network connections: each
// net.Conn becomes a face speaking the NDN TLV stream format
// (ndn.PacketReader/PacketWriter). Combined with the rt.Executor this
// turns the experiment stack into a small but genuine NDN daemon — the
// same Content Store, PIT, FIB and privacy-preserving cache managers,
// unchanged, over TCP or Unix sockets.
//
// Concurrency model: one reader goroutine per connection decodes packets
// and injects them into the forwarder through the executor, whose single
// loop goroutine runs every callback — so packets read from one
// connection reach the pipeline in the order they were read;
// transmissions happen inside executor callbacks and write to the
// connection directly. Everything else that touches a live forwarder
// (routes, application faces) goes through RunOn.
package netface

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/table"
)

// Face is one network-connected forwarder face.
type Face struct {
	id   table.FaceID
	conn net.Conn
	fwd  *fwd.Forwarder

	mu     sync.Mutex // guards writer and closed
	writer *bufio.Writer
	pw     *ndn.PacketWriter
	closed bool

	done chan struct{}
}

// Attach wires conn to the forwarder as a new face and starts its reader
// goroutine. onClose, if non-nil, runs exactly once when the face shuts
// down (remote close, read error, or explicit Close), with the causal
// error (nil for a clean local Close).
//
// Attach registers the face through the forwarder's executor and waits
// for the registration, so it is safe from any goroutine — but it must
// not be called from within an executor callback (it would wait on
// itself), and the executor must be live (an rt.Executor; a virtual-time
// simulator only fires events while someone runs it).
func Attach(f *fwd.Forwarder, conn net.Conn, onClose func(error)) (*Face, error) {
	if f == nil {
		return nil, errors.New("netface: attach requires a forwarder")
	}
	if conn == nil {
		return nil, errors.New("netface: attach requires a connection")
	}
	face := &Face{
		conn: conn,
		fwd:  f,
		done: make(chan struct{}),
	}
	face.writer = bufio.NewWriter(conn)
	face.pw = ndn.NewPacketWriter(face.writer)

	type attachResult struct {
		id     table.FaceID
		inject func(pkt any)
	}
	attached := make(chan attachResult, 1)
	f.Sim().Schedule(0, func() {
		id, inject := f.AttachCustom(face.transmit)
		attached <- attachResult{id: id, inject: inject}
	})
	res := <-attached
	face.id = res.id

	go face.readLoop(res.inject, onClose)
	return face, nil
}

// RunOn executes fn inside the forwarder's executor and waits for it —
// the safe way to install routes or attach applications on a live
// real-time forwarder. Must not be called from within a callback.
func RunOn(f *fwd.Forwarder, fn func() error) error {
	done := make(chan error, 1)
	f.Sim().Schedule(0, func() { done <- fn() })
	return <-done
}

// ID returns the forwarder face ID.
func (fa *Face) ID() table.FaceID { return fa.id }

// Done is closed when the face has shut down.
func (fa *Face) Done() <-chan struct{} { return fa.done }

// Close detaches the face and closes the connection. Idempotent.
func (fa *Face) Close() error {
	fa.mu.Lock()
	if fa.closed {
		fa.mu.Unlock()
		return nil
	}
	fa.closed = true
	fa.mu.Unlock()
	return fa.conn.Close()
}

// transmit runs inside executor callbacks (single-threaded with respect
// to forwarder state) but takes the write lock to coexist with Close.
func (fa *Face) transmit(pkt any, _ int) {
	packet, ok := toPacket(pkt)
	if !ok {
		return
	}
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.closed {
		return
	}
	if err := fa.pw.Write(packet); err != nil {
		fa.closeLocked()
		return
	}
	if err := fa.writer.Flush(); err != nil {
		fa.closeLocked()
	}
}

func (fa *Face) closeLocked() {
	if !fa.closed {
		fa.closed = true
		_ = fa.conn.Close()
	}
}

func (fa *Face) readLoop(inject func(pkt any), onClose func(error)) {
	reader := ndn.NewPacketReader(fa.conn)
	var cause error
	for {
		packet, err := reader.Next()
		if err != nil {
			if !isClosedError(err) {
				cause = err
			}
			break
		}
		switch {
		case packet.Interest != nil:
			inject(packet.Interest)
		case packet.Data != nil:
			inject(packet.Data)
		}
	}
	fa.mu.Lock()
	wasClosed := fa.closed
	fa.closed = true
	fa.mu.Unlock()
	if !wasClosed {
		_ = fa.conn.Close()
	}
	// Detach from the forwarder inside the executor.
	fa.fwd.Sim().Schedule(0, func() { fa.fwd.RemoveFace(fa.id) })
	close(fa.done)
	if onClose != nil {
		if wasClosed {
			cause = nil // local Close: clean shutdown
		}
		onClose(cause)
	}
}

func toPacket(pkt any) (ndn.Packet, bool) {
	switch p := pkt.(type) {
	case *ndn.Interest:
		return ndn.Packet{Interest: p}, true
	case *ndn.Data:
		return ndn.Packet{Data: p}, true
	default:
		return ndn.Packet{}, false
	}
}

func isClosedError(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// Listener accepts connections and attaches each as a face, calling
// accept with every new face so the caller can install routes.
type Listener struct {
	ln  net.Listener
	fwd *fwd.Forwarder

	mu     sync.Mutex
	closed bool
	// faces holds the live accepted faces, keyed by connection so a
	// face's shutdown can prune its own entry.
	faces map[net.Conn]*Face
	wg    sync.WaitGroup
}

// Listen starts accepting on ln. accept runs on the accept goroutine for
// each attached face; it may be nil.
func Listen(f *fwd.Forwarder, ln net.Listener, accept func(*Face)) (*Listener, error) {
	if f == nil || ln == nil {
		return nil, errors.New("netface: listen requires a forwarder and a listener")
	}
	l := &Listener{ln: ln, fwd: f, faces: make(map[net.Conn]*Face)}
	l.wg.Add(1)
	go l.acceptLoop(accept)
	return l, nil
}

// Addr returns the listener address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

func (l *Listener) acceptLoop(accept func(*Face)) {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		face, err := Attach(l.fwd, conn, func(error) {
			l.mu.Lock()
			delete(l.faces, conn)
			l.mu.Unlock()
		})
		if err != nil {
			_ = conn.Close()
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = face.Close()
			return
		}
		select {
		case <-face.Done():
			// The reader already exited, so its prune above may have run
			// before this insert; done closes before the prune is called.
		default:
			l.faces[conn] = face
		}
		l.mu.Unlock()
		if accept != nil {
			accept(face)
		}
	}
}

// Close stops accepting and closes every attached face.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	faces := make([]*Face, 0, len(l.faces))
	for _, fa := range l.faces {
		faces = append(faces, fa)
	}
	l.mu.Unlock()

	err := l.ln.Close()
	for _, fa := range faces {
		_ = fa.Close()
	}
	l.wg.Wait()
	return err
}

// Dial connects to addr over network and attaches the connection as a
// face on the forwarder.
func Dial(f *fwd.Forwarder, network, addr string, onClose func(error)) (*Face, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("netface: dial %s %s: %w", network, addr, err)
	}
	face, err := Attach(f, conn, onClose)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return face, nil
}
