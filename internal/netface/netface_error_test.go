package netface

import (
	"net"
	"testing"
	"time"
)

func TestDialFailure(t *testing.T) {
	f, _ := newRTForwarder(t, "dialer", false)
	// Port 1 on localhost is almost certainly closed; if something
	// listens there the Dial may succeed, so accept either but require
	// an error for a clearly invalid address.
	if _, err := Dial(f, "tcp", "256.256.256.256:99999", nil); err == nil {
		t.Error("invalid address accepted")
	}
}

func TestListenValidation(t *testing.T) {
	f, _ := newRTForwarder(t, "l", false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = ln.Close()
	}()
	if _, err := Listen(nil, ln, nil); err == nil {
		t.Error("nil forwarder accepted")
	}
	if _, err := Listen(f, nil, nil); err == nil {
		t.Error("nil listener accepted")
	}
}

func TestListenerCloseIdempotent(t *testing.T) {
	f, _ := newRTForwarder(t, "l2", false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listener, err := Listen(f, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := listener.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := listener.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestListenerClosesAttachedFaces(t *testing.T) {
	routerFwd, _ := newRTForwarder(t, "router2", false)
	clientFwd, _ := newRTForwarder(t, "client2", false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Face, 1)
	listener, err := Listen(routerFwd, ln, func(face *Face) { accepted <- face })
	if err != nil {
		t.Fatal(err)
	}
	clientFace, err := Dial(clientFwd, "tcp", listener.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	serverFace := <-accepted
	if err := listener.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-serverFace.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("server face not shut down by listener Close")
	}
	select {
	case <-clientFace.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client face did not observe the close")
	}
}

func TestTransmitIgnoresUnknownPacketTypes(t *testing.T) {
	f, _ := newRTForwarder(t, "odd", false)
	left, right := net.Pipe()
	face, err := Attach(f, left, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer face.Close()
	defer right.Close()
	// Directly exercising transmit with a non-NDN payload must be a
	// no-op rather than a panic or a garbage write.
	face.transmit("not a packet", 0)
	face.transmit(42, 0)
	if s := face.Stats(); s != (Stats{}) {
		t.Errorf("unknown packets left a trace: %+v", s)
	}
}
