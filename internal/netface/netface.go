// Package netface bridges a Forwarder to real network connections: each
// net.Conn becomes a face speaking the NDN TLV stream format
// (ndn.Framer on the way in, ndn.AppendInterest/AppendData on the way
// out). Combined with the rt.Executor this turns the experiment stack
// into a small but genuine NDN daemon — the same Content Store, PIT, FIB
// and privacy-preserving cache managers, unchanged, over TCP or Unix
// sockets.
//
// Concurrency model: each face has a reader goroutine and a writer
// goroutine, and the executor's single loop goroutine runs every
// forwarder callback. The reader only reads: each conn.Read fills one of
// the face's two receive chunks and schedules one executor event for
// it, and the reader goes on into the other chunk. That event frames
// every whole packet in the chunk, decodes it borrowed from the chunk
// and runs it through the forwarder at once, so packets read from one
// connection reach the pipeline in the order they were read. It runs
// at most burstCap packets and re-queues the rest behind whatever fell
// due meanwhile, so a flooding face cannot starve timers; a face leaves
// the forwarder only once every packet read from it has run. A packet cut
// by the end of a chunk is carried over by the framer, and the spent
// chunk goes back to the reader. Borrowing is sound because nothing the
// forwarder keeps aliases the chunk: each arriving Data is cloned into
// one owned buffer first (the store keeps it), and the forwarder copies
// what it keeps of an interest (see fwd.Forwarder.AttachCustom).
//
// The executor never touches the socket: a transmission encodes the
// packet onto the end of the face's send buffer and wakes the writer,
// which takes everything buffered and writes it with one conn.Write —
// the packets the pipeline emits while a write is in progress leave
// together in the next (group commit). The buffer is bounded: a packet
// that would overflow it is dropped and counted, and a write that makes
// no progress for ndn.DefaultInterestLifetime closes the face, so a peer
// that stops reading costs one face, not the daemon. Everything else
// that touches a live forwarder (routes, application faces) goes
// through RunOn.
package netface

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/table"
)

// sendBound caps the bytes a face holds for its writer. While the writer
// is blocked on a slow peer, the buffer fills to here and further packets
// are dropped; with the batch being written, a face holds at most twice
// this.
const sendBound = 1 << 20 // 1 MiB

// writeDeadline is how long one batch may take to write before the face
// is declared dead: an interest waits no longer than this for its Data.
const writeDeadline = ndn.DefaultInterestLifetime

// chunkSize is the size of each of a face's two receive chunks: the most
// one conn.Read takes in.
const chunkSize = 32 << 10

// burstCap bounds the packets one executor event runs through the
// forwarder.
const burstCap = 64

// Stats counts what a face has received and sent.
type Stats struct {
	Received uint64 // packets read from the connection
	Reads    uint64 // conn.Read calls that returned bytes: Received/Reads is the mean burst
	Packets  uint64 // packets written to the connection
	Bytes    uint64 // bytes written to the connection
	Writes   uint64 // conn.Write calls: Packets/Writes is the mean batch
	Drops    uint64 // packets refused: the send buffer was full, or the packet over ndn.MaxPacketSize
	Queued   int    // bytes buffered for the writer now, at most the send bound
}

func (s Stats) String() string {
	return fmt.Sprintf("read %d packets in %d reads, sent %d packets (%d B) in %d writes, dropped %d",
		s.Received, s.Reads, s.Packets, s.Bytes, s.Writes, s.Drops)
}

// chunk is one receive buffer and the bytes the last read put in it.
type chunk struct {
	buf []byte
	n   int
	// arrive is the event the reader schedules for the chunk, bound once
	// so that scheduling it allocates nothing.
	arrive func()
}

// poisonChunks, set by tests, overwrites each chunk as it goes back to
// the reader, so a packet that kept bytes borrowed from it shows them
// changed.
var poisonChunks atomic.Bool

// Face is one network-connected forwarder face.
type Face struct {
	id   table.FaceID
	conn net.Conn
	fwd  *fwd.Forwarder

	mu sync.Mutex // guards everything below
	// pending holds encoded packets the writer has not taken yet, and
	// queued how many; the writer swaps pending for its spent buffer.
	pending []byte
	queued  uint64
	stats   Stats
	closed  bool
	cause   error // why the face closed: nil for a local Close

	wake       chan struct{} // one slot: pending became non-empty, or the face closed
	closing    chan struct{} // closed when the face closes: the reader waits for no chunk
	writerDone chan struct{}
	done       chan struct{}

	// free holds the chunks the reader may fill: both at first, and each
	// again once the executor has framed it to its end.
	free chan *chunk

	// The executor side, touched only inside executor callbacks: the
	// face's inject, its framer, the chunks read and not yet framed to
	// their end (oldest first; the first is the framer's), frame bound
	// once for re-queueing, and whether the reader has finished, so the
	// face leaves the forwarder once the inbox is empty.
	inject   func(pkt any)
	framer   ndn.Framer
	inbox    []*chunk
	resume   func()
	detached bool
}

// Attach wires conn to the forwarder as a new face and starts its reader
// and writer goroutines. onClose, if non-nil, runs exactly once when the
// face shuts down (remote close, read or write error, or explicit Close),
// with the causal error (nil for a clean local Close).
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
		conn:       conn,
		fwd:        f,
		wake:       make(chan struct{}, 1),
		closing:    make(chan struct{}),
		writerDone: make(chan struct{}),
		done:       make(chan struct{}),
		free:       make(chan *chunk, 2),
	}
	face.inbox = make([]*chunk, 0, cap(face.free))
	face.resume = face.frame
	for range cap(face.free) {
		c := &chunk{buf: make([]byte, chunkSize)}
		c.arrive = func() { face.arrive(c) }
		face.free <- c
	}

	attached := make(chan struct{})
	f.Sim().Schedule(0, func() {
		face.id, face.inject = f.AttachCustom(face.transmit)
		close(attached)
	})
	<-attached

	go face.writeLoop()
	go face.readLoop(onClose)
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

// Done is closed when the face has shut down and both its goroutines
// have finished.
func (fa *Face) Done() <-chan struct{} { return fa.done }

// Stats returns the face's send counters.
func (fa *Face) Stats() Stats {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	s := fa.stats
	s.Queued = len(fa.pending)
	return s
}

// Close detaches the face and closes the connection, discarding whatever
// is still buffered. Idempotent.
func (fa *Face) Close() error { return fa.shut(nil) }

// shut closes the face once, recording why, and wakes the writer so it
// exits. Later calls do nothing.
func (fa *Face) shut(cause error) error {
	fa.mu.Lock()
	if fa.closed {
		fa.mu.Unlock()
		return nil
	}
	fa.closed, fa.cause = true, cause
	fa.pending, fa.queued = nil, 0
	fa.mu.Unlock()
	close(fa.closing)
	fa.signal()
	return fa.conn.Close()
}

// signal wakes the writer if it is not already due to wake.
func (fa *Face) signal() {
	select {
	case fa.wake <- struct{}{}:
	default:
	}
}

// transmit runs inside executor callbacks, where the forwarder owns the
// packet: it encodes the packet onto the send buffer and leaves the
// socket to the writer.
func (fa *Face) transmit(pkt any, _ int) {
	var size int
	switch p := pkt.(type) {
	case *ndn.Interest:
		size = ndn.InterestWireSize(p)
	case *ndn.Data:
		size = ndn.DataWireSize(p)
	default:
		return
	}
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.closed {
		return
	}
	if size > ndn.MaxPacketSize || len(fa.pending)+size > sendBound {
		fa.stats.Drops++
		return
	}
	if len(fa.pending) == 0 {
		// Empty means the writer has taken everything before this, so no
		// wake-up is outstanding for it.
		fa.signal()
	}
	switch p := pkt.(type) {
	case *ndn.Interest:
		fa.pending = ndn.AppendInterest(fa.pending, p)
	case *ndn.Data:
		fa.pending = ndn.AppendData(fa.pending, p)
	}
	fa.queued++
}

// writeLoop is the face's writer: each time it is woken it takes the
// whole send buffer, leaving its previous one (emptied) in its place,
// and writes it with one call. A failed or timed-out write closes the
// face with the error.
func (fa *Face) writeLoop() {
	defer close(fa.writerDone)
	var batch []byte
	for range fa.wake {
		fa.mu.Lock()
		if fa.closed {
			fa.mu.Unlock()
			return
		}
		batch, fa.pending = fa.pending, batch[:0]
		packets := fa.queued
		fa.queued = 0
		fa.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		err := fa.conn.SetWriteDeadline(time.Now().Add(writeDeadline))
		if err == nil {
			_, err = fa.conn.Write(batch)
		}
		if err != nil {
			_ = fa.shut(fmt.Errorf("netface: write: %w", err))
			return
		}
		fa.mu.Lock()
		fa.stats.Packets += packets
		fa.stats.Bytes += uint64(len(batch))
		fa.stats.Writes++
		fa.mu.Unlock()
	}
}

// readLoop is the face's reader: it reads into whichever chunk is free
// and schedules the chunk's event, until the connection fails or the
// face closes; then it detaches the face.
func (fa *Face) readLoop(onClose func(error)) {
	var readErr error
	for {
		var c *chunk
		select {
		case c = <-fa.free:
		case <-fa.closing:
		}
		if c == nil {
			break
		}
		n, err := fa.conn.Read(c.buf)
		if n > 0 {
			c.n = n
			fa.fwd.Sim().Schedule(0, c.arrive)
			// Counted once queued: a read Stats reports has its event.
			fa.mu.Lock()
			fa.stats.Reads++
			fa.mu.Unlock()
		} else {
			fa.free <- c
		}
		if err != nil {
			if !isClosedError(err) {
				readErr = err
			}
			break
		}
	}
	// The first to shut the face names the cause: a local Close (nil), a
	// failed write, a framing error, or this read error.
	_ = fa.shut(readErr)
	<-fa.writerDone
	fa.mu.Lock()
	cause := fa.cause
	fa.mu.Unlock()
	// Detach from the forwarder inside the executor, after every event
	// scheduled above.
	fa.fwd.Sim().Schedule(0, fa.detach)
	close(fa.done)
	if onClose != nil {
		onClose(cause)
	}
}

// detach removes the face from the forwarder once every packet read
// from it has run: packets beyond the burst cap may still be queued, and
// frame removes the face when it has run them.
func (fa *Face) detach() {
	fa.detached = true
	if len(fa.inbox) == 0 {
		fa.fwd.RemoveFace(fa.id)
	}
}

// arrive is a read's event: the chunk joins the inbox and, unless an
// earlier read's packets are still queued behind the burst cap, is
// framed now.
func (fa *Face) arrive(c *chunk) {
	fa.inbox = append(fa.inbox, c)
	if len(fa.inbox) == 1 {
		fa.framer.Feed(c.buf[:c.n])
		fa.frame()
	}
}

// frame runs the inbox's packets through the forwarder, borrowed from
// their chunk, handing each chunk back to the reader once it is spent.
// After burstCap packets it re-queues itself for the rest. Once the
// inbox is empty and the reader has finished, it removes the face.
func (fa *Face) frame() {
	packets := uint64(0)
	for len(fa.inbox) > 0 {
		if packets == burstCap {
			fa.fwd.Sim().Schedule(0, fa.resume)
			break
		}
		p, ok, err := fa.framer.Next()
		if err != nil {
			// The stream cannot be framed past here: drop what is read
			// and close the face, which stops the reader.
			fa.inbox = fa.inbox[:0]
			_ = fa.shut(fmt.Errorf("netface: read: %w", err))
			break
		}
		if !ok {
			fa.release(fa.inbox[0])
			fa.inbox = append(fa.inbox[:0], fa.inbox[1:]...)
			if len(fa.inbox) > 0 {
				fa.framer.Feed(fa.inbox[0].buf[:fa.inbox[0].n])
			}
			continue
		}
		packets++
		if p.Interest != nil {
			fa.inject(p.Interest)
		} else {
			fa.inject(p.Data.Clone())
		}
	}
	fa.mu.Lock()
	fa.stats.Received += packets
	fa.mu.Unlock()
	if fa.detached && len(fa.inbox) == 0 {
		fa.fwd.RemoveFace(fa.id)
	}
}

// release hands a spent chunk back to the reader.
func (fa *Face) release(c *chunk) {
	if poisonChunks.Load() {
		for i := range c.buf {
			c.buf[i] = 0xA5
		}
	}
	fa.free <- c
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
