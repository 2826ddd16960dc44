package main

import (
	"bytes"
	"math/rand"
	"testing"
)

func drawOps(s opStream, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func mustZipf(t *testing.T, seed int64) *zipfStream {
	t.Helper()
	s, err := newZipfStream(seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	const n = 20000
	streams := map[string]func(seed int64) opStream{
		"zipf":  func(seed int64) opStream { return mustZipf(t, seed) },
		"probe": func(seed int64) opStream { return newProbeStream(seed) },
	}
	for name, build := range streams {
		a, b, other := drawOps(build(7), n), drawOps(build(7), n), drawOps(build(8), n)
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two streams of seed 7: %v vs %v", name, i, a[i], b[i])
			}
			if a[i] == other[i] {
				same++
			}
		}
		if same == n {
			t.Errorf("%s: seeds 7 and 8 drew the same %d ops", name, n)
		}
		// Names are a function of the id alone.
		s := build(7)
		if !s.name(a[0].id).Equal(build(7).name(a[0].id)) {
			t.Errorf("%s: id %d names differ between streams", name, a[0].id)
		}
		if id, ok := nameID(s.name(a[0].id)); !ok || id != a[0].id {
			t.Errorf("%s: nameID(%s) = %d, %v; want %d", name, s.name(a[0].id), id, ok, a[0].id)
		}
	}
}

func TestZipfExpectedClasses(t *testing.T) {
	s := mustZipf(t, 3)
	seen := make(map[int32]int)
	for i := 1; i <= 50000; i++ {
		o := s.next()
		last, known := seen[o.id]
		switch {
		case !known && o.class != classMiss:
			t.Fatalf("draw %d: first request for %d expected %v, want miss", i, o.id, o.class)
		case known && i-last <= zipfSureHitDistance && o.class != classHit:
			t.Fatalf("draw %d: %d last drawn %d draws ago expected %v, want hit", i, o.id, i-last, o.class)
		case known && i-last > zipfSureHitDistance && o.class != classAny:
			t.Fatalf("draw %d: %d last drawn %d draws ago expected %v, want any", i, o.id, i-last, o.class)
		}
		seen[o.id] = i
	}
}

func TestProbeStreamMixAndRefresh(t *testing.T) {
	s := newProbeStream(11)
	const n = 100000
	counts := make(map[opClass]int)
	lastSeen := make(map[int32]int)
	fresh := make(map[int32]bool)
	for i := 0; i < n; i++ {
		o := s.next()
		counts[o.class]++
		if o.class == classMiss {
			if fresh[o.id] {
				t.Fatalf("miss name %d drawn twice", o.id)
			}
			fresh[o.id] = true
			continue
		}
		// A held name must come round again long before ndnd's LRU
		// (capacity daemonCapacity) could push it out.
		if last, known := lastSeen[o.id]; known && i-last > daemonCapacity*3/4 {
			t.Fatalf("held name %d went %d draws without a refresh", o.id, i-last)
		}
		lastSeen[o.id] = i
	}
	for class, want := range map[opClass]float64{classHit: probeHitShare, classDisguised: probePrivateShare, classMiss: 1 - probeHitShare - probePrivateShare} {
		if got := float64(counts[class]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("class %v share %.4f, want %.2f", class, got, want)
		}
	}
	if len(lastSeen) != 2*probeClassNames {
		t.Errorf("%d held names drawn, want %d", len(lastSeen), 2*probeClassNames)
	}
	for _, id := range s.held() {
		private := s.name(id).HasPrivateMarker()
		if want := int(id) >= probeClassNames; private != want {
			t.Errorf("held name %s private = %v, want %v", s.name(id), private, want)
		}
	}
}

// TestWindowNeverDuplicatesInFlight drives the window with completions
// in random order: a name must never be in flight twice, and the ops
// sent must be exactly the stream's draws.
func TestWindowNeverDuplicatesInFlight(t *testing.T) {
	const size, steps = zipfWindow, 200000
	w := newWindow(mustZipf(t, 5), size)
	reference := mustZipf(t, 5)
	rng := rand.New(rand.NewSource(99))
	inflight := make(map[int32]op)
	sent := make(map[op]int)
	for i := 0; i < steps; i++ {
		for {
			o, ok := w.take()
			if !ok {
				break
			}
			if _, dup := inflight[o.id]; dup {
				t.Fatalf("step %d: name %d sent while already in flight", i, o.id)
			}
			inflight[o.id] = o
			sent[o]++
		}
		if len(inflight) == 0 {
			t.Fatalf("step %d: window stalled with nothing in flight", i)
		}
		if len(inflight) > size {
			t.Fatalf("step %d: %d in flight, window is %d", i, len(inflight), size)
		}
		// Complete a random one.
		k := rng.Intn(len(inflight))
		for id := range inflight {
			if k == 0 {
				delete(inflight, id)
				w.done(id)
				break
			}
			k--
		}
	}
	// Everything the stream drew was sent or is still set aside.
	drawn := 0
	for _, n := range sent {
		drawn += n
	}
	drawn += len(w.deferred)
	want := make(map[op]int)
	for i := 0; i < drawn; i++ {
		want[reference.next()]++
	}
	for _, d := range w.deferred {
		sent[d]++
	}
	for o, n := range want {
		if sent[o] != n {
			t.Fatalf("op %v sent %d times, stream drew it %d times", o, sent[o], n)
		}
	}
}

func TestFillPayloadDistinguishes(t *testing.T) {
	a, b, c, again := make([]byte, payloadBytes), make([]byte, payloadBytes), make([]byte, payloadBytes), make([]byte, payloadBytes)
	fillPayload(a, 1, 5)
	fillPayload(b, 1, 6)
	fillPayload(c, 2, 5)
	fillPayload(again, 1, 5)
	if !bytes.Equal(a, again) {
		t.Error("same seed and id gave different payloads")
	}
	if bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Error("payloads of different ids or seeds are equal")
	}
}
