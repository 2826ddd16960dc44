package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"ndnprivacy/internal/ndn"
)

// ndndPackage is the daemon under test, built from this checkout.
const ndndPackage = "ndnprivacy/cmd/ndnd"

// buildNdnd compiles cmd/ndnd into outDir. go build is a fast no-op
// when the binary is current, so every daemon run may call it.
func buildNdnd(ctx context.Context, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "ndnd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, ndndPackage)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", ndndPackage, err, out)
	}
	return bin, nil
}

// loopbackAvailable reports whether this host lets us listen on
// 127.0.0.1; the daemon workloads need it.
func loopbackAvailable() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	return ln.Close()
}

// freePort picks a TCP port by listening on port 0 and closing again.
// Another process may take it before ndnd binds, so callers retry.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// ndndProc is one running ndnd subprocess.
type ndndProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait returned
}

const (
	startAttempts = 5
	readyDeadline = 5 * time.Second
)

// startNdnd launches ndnd on a free loopback port with one upstream
// route and waits until it accepts connections. Its output goes to log.
func startNdnd(ctx context.Context, bin, manager, upstream string, where placement, log io.Writer) (*ndndProc, error) {
	var lastErr error
	for attempt := 0; attempt < startAttempts; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.CommandContext(ctx, bin,
			"-listen", addr,
			"-capacity", fmt.Sprint(daemonCapacity),
			"-manager", manager,
			"-route", producerPrefix.String()+"="+upstream)
		cmd.Stdout, cmd.Stderr = log, log
		// If this process dies without running its clean-up, the kernel
		// kills ndnd too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := cmd.Start
		if where.split {
			start = func() error { return startOn(where.sut, cmd.Start) }
		}
		startErr := start()
		if cmd.Process == nil {
			return nil, fmt.Errorf("start ndnd: %w", startErr)
		}
		p := &ndndProc{cmd: cmd, addr: addr, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a killed daemon carries no news
			close(p.exited)
		}()
		if startErr != nil {
			p.stop()
			return nil, fmt.Errorf("place ndnd: %w", startErr)
		}
		if lastErr = p.waitReady(); lastErr == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, fmt.Errorf("ndnd did not come up in %d attempts: %w", startAttempts, lastErr)
}

// waitReady dials until ndnd accepts, it exits, or the deadline passes.
func (p *ndndProc) waitReady() error {
	deadline := time.Now().Add(readyDeadline)
	for {
		conn, err := net.DialTimeout("tcp", p.addr, 200*time.Millisecond)
		if err == nil {
			return conn.Close()
		}
		select {
		case <-p.exited:
			return fmt.Errorf("ndnd exited before accepting on %s", p.addr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ndnd not accepting on %s after %v: %w", p.addr, readyDeadline, err)
		}
	}
}

// stop kills the daemon and waits until it is reaped.
func (p *ndndProc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// flight is one interest in flight.
type flight struct {
	op      op
	sentAt  time.Time
	sighted uint32 // the producer's sighting count for the name when sent
}

// daemonSystem is ndnd as a subprocess with the bench process as its
// only consumer (one TCP connection, closed loop with a fixed window)
// and its only producer (one TCP connection ndnd dials).
type daemonSystem struct {
	ctx      context.Context // cancelling it kills ndnd
	workload string
	seed     int64
	manager  string
	ndndBin  string
	where    placement
	logPath  string
	stream   opStream
	win      *window
	prefetch []int32 // fetched once, in order, before the warm-up
	warmOps  int

	log      *os.File
	proc     *ndndProc
	prodLn   net.Listener
	prodConn net.Conn
	// prodStopped is closed when the producer goroutine returned;
	// prodErr then says why, nil for a closed connection.
	prodStopped chan struct{}
	prodErr     error
	// sightings[slot] counts the interests the producer saw for the
	// name in that slot; the consumer compares before and after.
	sightings []atomic.Uint32

	conn    net.Conn
	reader  *ndn.PacketReader
	flights []flight
	nonce   uint64
	scratch []byte

	// rec, when set, receives one span per fetch (traced run only).
	rec       *spanRecorder
	recParent int

	served       [4]int      // completions by observed class
	rtt          [4][]uint32 // ns, by observed class
	rttAll       []uint32
	firstFailure string
}

func newDaemonSystem(ctx context.Context, workload string, seed int64, ndndBin string, where placement, outDir string) (*daemonSystem, error) {
	s := &daemonSystem{
		ctx:      ctx,
		workload: workload,
		seed:     seed,
		ndndBin:  ndndBin,
		where:    where,
		logPath:  filepath.Join(outDir, "ndnd-"+workload+".log"),
		scratch:  make([]byte, payloadBytes),
	}
	switch workload {
	case wDaemonZipf:
		stream, err := newZipfStream(seed)
		if err != nil {
			return nil, err
		}
		s.manager, s.stream, s.warmOps = "none", stream, zipfWarmOps
		s.win = newWindow(stream, zipfWindow)
	case wDaemonProbe:
		stream := newProbeStream(seed)
		s.manager, s.stream, s.warmOps = "delay", stream, probeWarmOps
		s.win = newWindow(stream, probeWindow)
		s.prefetch = stream.held()
	default:
		return nil, fmt.Errorf("no daemon workload %q", workload)
	}
	s.sightings = make([]atomic.Uint32, s.stream.slots())
	s.flights = make([]flight, 0, cap(s.win.inflight))
	return s, nil
}

func (s *daemonSystem) setUp() error {
	var err error
	if s.log, err = os.Create(s.logPath); err != nil {
		return err
	}
	// The producer must listen before ndnd starts: -route dials at once.
	if s.prodLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	if s.proc, err = startNdnd(s.ctx, s.ndndBin, s.manager, s.prodLn.Addr().String(), s.where, s.log); err != nil {
		return err
	}
	if tcp, isTCP := s.prodLn.(*net.TCPListener); isTCP {
		if err := tcp.SetDeadline(time.Now().Add(readyDeadline)); err != nil {
			return err
		}
	}
	if s.prodConn, err = s.prodLn.Accept(); err != nil {
		return fmt.Errorf("ndnd never dialled the producer: %w", err)
	}
	s.prodStopped = make(chan struct{})
	go func() {
		s.prodErr = s.produce(s.prodConn)
		close(s.prodStopped)
	}()

	if s.conn, err = net.Dial("tcp", s.proc.addr); err != nil {
		return err
	}
	s.reader = ndn.NewPacketReader(s.conn)

	// Prefetch one at a time, so every held name is in the store before
	// the mixed stream starts, then warm up on the stream itself.
	for _, id := range s.prefetch {
		s.send(op{id: id, class: classMiss})
		if _, _, err := s.complete(); err != nil {
			return err
		}
	}
	for done := 0; done < s.warmOps; {
		n, _, err := s.step()
		if err != nil {
			return err
		}
		done += n
	}
	if s.firstFailure != "" {
		return fmt.Errorf("warm-up: %s", s.firstFailure)
	}
	s.served = [4]int{}
	for c := range s.rtt {
		s.rtt[c] = s.rtt[c][:0]
	}
	s.rttAll = s.rttAll[:0]
	return nil
}

// tearDown closes both connections, kills ndnd and waits for it and for
// the producer goroutine. Safe after a partial setUp.
func (s *daemonSystem) tearDown() {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.proc != nil {
		s.proc.stop()
	}
	if s.prodConn != nil {
		s.prodConn.Close()
		<-s.prodStopped
	}
	if s.prodLn != nil {
		s.prodLn.Close()
	}
	if s.log != nil {
		s.log.Close()
	}
	s.conn, s.proc, s.prodConn, s.prodLn, s.log = nil, nil, nil, nil, nil
}

// produce answers every interest with the name's payload and counts the
// sighting. It returns nil when the connection closes.
func (s *daemonSystem) produce(conn net.Conn) error {
	reader := ndn.NewPacketReader(conn)
	buffered := bufio.NewWriter(conn)
	writer := ndn.NewPacketWriter(buffered)
	payload := make([]byte, payloadBytes)
	for {
		pkt, err := reader.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) {
				return nil
			}
			return fmt.Errorf("producer read: %w", err)
		}
		if pkt.Interest == nil {
			continue
		}
		id, ok := nameID(pkt.Interest.Name)
		if !ok {
			continue // not ours; the consumer's fetch times out and counts as failed
		}
		s.sightings[s.stream.slot(id)].Add(1)
		fillPayload(payload, s.seed, id)
		if err := writer.Write(ndn.Packet{Data: &ndn.Data{Name: pkt.Interest.Name, Payload: payload}}); err != nil {
			return fmt.Errorf("producer write: %w", err)
		}
		if err := buffered.Flush(); err != nil {
			return fmt.Errorf("producer flush: %w", err)
		}
	}
}

// send writes one interest. A write error surfaces at the next read.
func (s *daemonSystem) send(o op) {
	s.nonce++
	wire := ndn.EncodeInterest(ndn.NewInterest(s.stream.name(o.id), s.nonce))
	s.flights = append(s.flights, flight{
		op:      o,
		sighted: s.sightings[s.stream.slot(o.id)].Load(),
		sentAt:  time.Now(),
	})
	_, _ = s.conn.Write(wire)
}

// step fills the window, then waits for one completion.
func (s *daemonSystem) step() (attempted, failed int, err error) {
	for {
		o, ok := s.win.take()
		if !ok {
			break
		}
		s.send(o)
	}
	return s.complete()
}

func (s *daemonSystem) fail(format string, args ...any) {
	if s.firstFailure == "" {
		s.firstFailure = fmt.Sprintf(format, args...)
	}
}

// complete reads one Data and settles the fetch it answers. A fetch
// fails when no answer comes within the op timeout, or the answer has
// the wrong payload or came from the wrong serving class. After a
// timeout everything in flight is written off.
func (s *daemonSystem) complete() (attempted, failed int, err error) {
	if len(s.flights) == 0 {
		return 0, 0, errors.New("nothing in flight")
	}
	if err := s.conn.SetReadDeadline(time.Now().Add(opTimeoutSeconds * time.Second)); err != nil {
		return 0, 0, err
	}
	for {
		pkt, err := s.reader.Next()
		now := time.Now()
		if err != nil {
			var netErr net.Error
			if errors.As(err, &netErr) && netErr.Timeout() {
				n := len(s.flights)
				s.fail("%d fetches unanswered after %ds, first %s", n, opTimeoutSeconds, s.stream.name(s.flights[0].op.id))
				for _, f := range s.flights {
					s.win.done(f.op.id)
				}
				s.flights = s.flights[:0]
				// The stream decoder may have stopped mid-packet.
				s.reader = ndn.NewPacketReader(s.conn)
				return n, n, nil
			}
			return 0, 0, fmt.Errorf("consumer read: %w", err)
		}
		if pkt.Data == nil {
			continue
		}
		idx := -1
		id, ok := nameID(pkt.Data.Name)
		for i := range s.flights {
			if ok && s.flights[i].op.id == id && pkt.Data.Name.Equal(s.stream.name(id)) {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue // a late answer to a fetch already written off
		}
		f := s.flights[idx]
		s.flights[idx] = s.flights[len(s.flights)-1]
		s.flights = s.flights[:len(s.flights)-1]
		s.win.done(id)
		if !s.settle(f, pkt.Data, now) {
			return 1, 1, nil
		}
		return 1, 0, nil
	}
}

// settle verifies one answered fetch and records its latency under the
// class it was actually served from.
func (s *daemonSystem) settle(f flight, data *ndn.Data, now time.Time) bool {
	fillPayload(s.scratch, s.seed, f.op.id)
	if !bytes.Equal(data.Payload, s.scratch) {
		s.fail("%s: payload does not match what the producer publishes", data.Name)
		return false
	}
	seen := s.sightings[s.stream.slot(f.op.id)].Load() - f.sighted
	observed := f.op.class
	switch {
	case seen == 1:
		observed = classMiss
	case seen == 0 && f.op.class != classDisguised:
		observed = classHit
	case seen > 1:
		s.fail("%s: producer saw the interest %d times", data.Name, seen)
		return false
	}
	if f.op.class != classAny && observed != f.op.class {
		s.fail("%s: served as %s, expected %s", data.Name, observed, f.op.class)
		return false
	}
	rtt := now.Sub(f.sentAt)
	ns := uint32(rtt) // below the op timeout, so it fits
	s.served[observed]++
	s.rtt[observed] = append(s.rtt[observed], ns)
	s.rttAll = append(s.rttAll, ns)
	if s.rec != nil {
		end := s.rec.now()
		s.rec.add("fetch."+observed.String(), s.recParent, end-int64(rtt), end)
	}
	return true
}

func (s *daemonSystem) segment(d time.Duration) (attempted, failed int, err error) {
	deadline := time.Now().Add(d)
	for {
		a, f, err := s.step()
		if err != nil {
			return attempted, failed, err
		}
		attempted += a
		failed += f
		if !time.Now().Before(deadline) {
			return attempted, failed, nil
		}
	}
}

func (s *daemonSystem) cpu() (time.Duration, error) { return pidCPU(s.proc.cmd.Process.Pid) }
func (s *daemonSystem) peakRSSkB() (uint64, error)  { return pidPeakRSSkB(s.proc.cmd.Process.Pid) }

// missShare is the share of settled fetches the producer answered.
func (s *daemonSystem) missShare() float64 {
	total := len(s.rttAll)
	if total == 0 {
		return 0
	}
	return float64(s.served[classMiss]) / float64(total)
}

// verify drains the window and checks the workload's shape: failures
// were already counted per op, so what is left is the class mix and,
// for the probe, the ordering the timing channel rests on.
func (s *daemonSystem) verify() error {
	for len(s.flights) > 0 {
		if _, _, err := s.complete(); err != nil {
			return err
		}
	}
	select {
	case <-s.prodStopped:
		return fmt.Errorf("producer stopped during the run: %v", s.prodErr)
	default:
	}
	if s.firstFailure != "" {
		return errors.New(s.firstFailure)
	}
	share := s.missShare()
	switch s.workload {
	case wDaemonZipf:
		if share < zipfMissShare-zipfMissShareTol || share > zipfMissShare+zipfMissShareTol {
			return fmt.Errorf("miss share %.4f outside %.2f±%.2f: the workload no longer exercises the mix it claims", share, zipfMissShare, zipfMissShareTol)
		}
	case wDaemonProbe:
		want := 1 - probeHitShare - probePrivateShare
		if share < want-0.05 || share > want+0.05 {
			return fmt.Errorf("miss share %.4f, want about %.2f", share, want)
		}
		hit, disguised := median32(s.rtt[classHit]), median32(s.rtt[classDisguised])
		if len(s.rtt[classHit]) >= 100 && len(s.rtt[classDisguised]) >= 100 && hit >= disguised {
			return fmt.Errorf("median hit RTT %v not below median disguised RTT %v: the delay manager is not delaying private hits",
				time.Duration(hit), time.Duration(disguised))
		}
	}
	return nil
}
