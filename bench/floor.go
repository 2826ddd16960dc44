package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/rt"
)

const floorSamples = 2000

var floorName = producerPrefix.AppendString("floor")

// pingPong sends floorSamples interests for floorName over conn, one at
// a time, and returns the median round-trip time in nanoseconds.
func pingPong(conn net.Conn) (float64, error) {
	reader := ndn.NewPacketReader(conn)
	rtts := make([]float64, 0, floorSamples)
	if err := conn.SetDeadline(time.Now().Add(opTimeoutSeconds * time.Second * 5)); err != nil {
		return 0, err
	}
	for i := 0; i < floorSamples+100; i++ {
		wire := ndn.EncodeInterest(ndn.NewInterest(floorName, uint64(i)+1))
		start := time.Now()
		if _, err := conn.Write(wire); err != nil {
			return 0, err
		}
		pkt, err := reader.Next()
		if err != nil {
			return 0, err
		}
		if pkt.Data == nil || !pkt.Data.Name.Equal(floorName) || len(pkt.Data.Payload) != payloadBytes {
			return 0, fmt.Errorf("floor: unexpected answer %v", pkt)
		}
		if i >= 100 { // the first hundred warm the path
			rtts = append(rtts, float64(time.Since(start).Nanoseconds()))
		}
	}
	return median(rtts), nil
}

// echoRTT is the round trip through two sockets and the stream codec
// and nothing else: a peer goroutine answers each interest itself.
func echoRTT(seed int64) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	payload := make([]byte, payloadBytes)
	fillPayload(payload, seed, 0)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		reader := ndn.NewPacketReader(conn)
		buffered := bufio.NewWriter(conn)
		writer := ndn.NewPacketWriter(buffered)
		for {
			pkt, err := reader.Next()
			if err != nil || pkt.Interest == nil {
				return
			}
			if writer.Write(ndn.Packet{Data: &ndn.Data{Name: pkt.Interest.Name, Payload: payload}}) != nil || buffered.Flush() != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		<-stopped
		return 0, err
	}
	rtt, err := pingPong(conn)
	conn.Close()
	<-stopped
	return rtt, err
}

// forwarderRTT is the same round trip with a forwarder in the middle: a
// cached name fetched through rt + netface + the hit pipeline, all in
// this process.
func forwarderRTT(seed int64) (float64, error) {
	exec := rt.New(seed)
	defer exec.Close()
	store, err := cache.NewStore(daemonCapacity, cache.NewLRU())
	if err != nil {
		return 0, err
	}
	payload := make([]byte, payloadBytes)
	fillPayload(payload, seed, 0)
	data, err := ndn.NewData(floorName, payload)
	if err != nil {
		return 0, err
	}
	store.Insert(data, 0, time.Millisecond) // before any goroutine can touch the store
	router, err := fwd.New(fwd.Config{Name: "floor", Sim: exec, Store: store})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	listener, err := netface.Listen(router, ln, nil)
	if err != nil {
		ln.Close()
		return 0, err
	}
	defer listener.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return pingPong(conn)
}
