package main

import (
	"encoding/binary"
	"math/rand"
	"strconv"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/trace"
)

// The daemon workloads' request streams. A stream is a pure function of
// its seed: the same seed draws the same ops in the same order, whatever
// the timing of the run.

// opClass is how the generator expects an op to be served.
type opClass uint8

const (
	classAny       opClass = iota // either; depends on ndnd's eviction order
	classHit                      // answered from ndnd's store, never reaches the producer
	classDisguised                // a hit the delay manager holds back; never reaches the producer
	classMiss                     // reaches the producer exactly once
)

func (c opClass) String() string {
	return [...]string{"any", "hit", "disguised", "miss"}[c]
}

// op is one fetch: the object to ask for and the class its answer must
// fall in.
type op struct {
	id    int32
	class opClass
}

// opStream draws the next op. Implementations also map ids to names.
type opStream interface {
	next() op
	name(id int32) ndn.Name
	// slots is the size of the producer's sighting table; slot maps an
	// id into it so that ids in flight together never share a slot.
	slots() int
	slot(id int32) int
}

var producerPrefix = ndn.MustParseName("/p")

// zipfStream draws object ranks from Zipf(zipfExponent) over
// zipfObjects objects, named /p/z/<rank>.
type zipfStream struct {
	zipf  *trace.Zipf
	rng   *rand.Rand
	names []ndn.Name
	// lastDraw[id] is 1 + the draw index of the object's previous
	// request; 0 means never requested.
	lastDraw []int32
	draws    int32
}

func newZipfStream(seed int64) (*zipfStream, error) {
	z, err := trace.NewZipf(zipfObjects, zipfExponent)
	if err != nil {
		return nil, err
	}
	s := &zipfStream{
		zipf:     z,
		rng:      rand.New(rand.NewSource(seed)),
		names:    make([]ndn.Name, zipfObjects),
		lastDraw: make([]int32, zipfObjects),
	}
	base := producerPrefix.AppendString("z")
	for i := range s.names {
		s.names[i] = base.AppendString(strconv.Itoa(i))
	}
	return s, nil
}

func (s *zipfStream) next() op {
	id := int32(s.zipf.Sample(s.rng))
	s.draws++
	last := s.lastDraw[id]
	s.lastDraw[id] = s.draws
	switch {
	case last == 0:
		return op{id: id, class: classMiss}
	case s.draws-last <= zipfSureHitDistance:
		return op{id: id, class: classHit}
	default:
		return op{id: id, class: classAny}
	}
}

func (s *zipfStream) name(id int32) ndn.Name { return s.names[id] }
func (s *zipfStream) slots() int             { return zipfObjects }
func (s *zipfStream) slot(id int32) int      { return int(id) }

// probeStream interleaves three name classes by the seed: public names
// ndnd holds (hit), /p/private/ names it holds (disguised by the delay
// manager), and names nobody asked for before (miss). Within a held
// class the names come round-robin in a seeded order, so each is
// refreshed often enough never to reach the LRU tail.
type probeStream struct {
	rng       *rand.Rand
	seed      int64
	names     []ndn.Name // 0..probeClassNames-1 public, then private
	order     [2][]int32 // seeded visiting order per held class
	cursor    [2]int
	freshBase ndn.Name
	fresh     int32
}

const probeFreshSlots = 4096

func newProbeStream(seed int64) *probeStream {
	s := &probeStream{
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		names:     make([]ndn.Name, 2*probeClassNames),
		freshBase: producerPrefix.AppendString("new", strconv.FormatInt(seed, 10)),
	}
	bases := [2]ndn.Name{producerPrefix.AppendString("pub"), producerPrefix.AppendString("private")}
	for class := 0; class < 2; class++ {
		s.order[class] = make([]int32, probeClassNames)
		for i := 0; i < probeClassNames; i++ {
			id := class*probeClassNames + i
			s.names[id] = bases[class].AppendString(strconv.Itoa(id))
			s.order[class][i] = int32(id)
		}
		s.rng.Shuffle(probeClassNames, func(i, j int) {
			s.order[class][i], s.order[class][j] = s.order[class][j], s.order[class][i]
		})
	}
	return s
}

// held lists every pre-fetched name's id, for the prefetch pass.
func (s *probeStream) held() []int32 {
	out := append([]int32(nil), s.order[0]...)
	return append(out, s.order[1]...)
}

func (s *probeStream) next() op {
	u := s.rng.Float64()
	switch {
	case u < probeHitShare:
		return op{id: s.roundRobin(0), class: classHit}
	case u < probeHitShare+probePrivateShare:
		return op{id: s.roundRobin(1), class: classDisguised}
	default:
		id := int32(2*probeClassNames) + s.fresh
		s.fresh++
		return op{id: id, class: classMiss}
	}
}

func (s *probeStream) roundRobin(class int) int32 {
	id := s.order[class][s.cursor[class]]
	s.cursor[class] = (s.cursor[class] + 1) % probeClassNames
	return id
}

func (s *probeStream) name(id int32) ndn.Name {
	if int(id) < len(s.names) {
		return s.names[id]
	}
	return s.freshBase.AppendString(strconv.Itoa(int(id)))
}

func (s *probeStream) slots() int { return 2*probeClassNames + probeFreshSlots }

func (s *probeStream) slot(id int32) int {
	if int(id) < 2*probeClassNames {
		return int(id)
	}
	return 2*probeClassNames + (int(id)-2*probeClassNames)%probeFreshSlots
}

// nameID recovers the op id from a name a stream produced: every such
// name ends in the decimal id.
func nameID(name ndn.Name) (int32, bool) {
	if name.Len() == 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(string(name.ComponentRef(name.Len()-1)), 10, 32)
	if err != nil || id < 0 {
		return 0, false
	}
	return int32(id), true
}

// fillPayload writes the object's expected content into buf: a word
// pattern keyed by seed and id, so a Data carrying another object's or
// another run's payload fails verification.
func fillPayload(buf []byte, seed int64, id int32) {
	base := uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(id)+1)*0xBF58476D1CE4E5B9
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], base+uint64(i)*0x94D049BB133111EB)
	}
}

// window hands out ops so that no name is in flight twice: two pending
// interests for one name are aggregated by the PIT into a single reply,
// which would leave a closed loop waiting for ever. A drawn op whose
// name is still in flight is set aside and sent once the name is free,
// so the set of ops sent is exactly the stream's, in near-draw order.
type window struct {
	src      opStream
	inflight []int32
	deferred []op
}

func newWindow(src opStream, size int) *window {
	return &window{
		src:      src,
		inflight: make([]int32, 0, size),
		deferred: make([]op, 0, size),
	}
}

func (w *window) busy(id int32) bool {
	for _, f := range w.inflight {
		if f == id {
			return true
		}
	}
	return false
}

// take returns the next op to send and marks its name in flight. It
// reports false when the window is full or every candidate is blocked;
// the caller then waits for a completion.
func (w *window) take() (op, bool) {
	if len(w.inflight) == cap(w.inflight) {
		return op{}, false
	}
	for i, d := range w.deferred {
		if !w.busy(d.id) {
			w.deferred = append(w.deferred[:i], w.deferred[i+1:]...)
			w.inflight = append(w.inflight, d.id)
			return d, true
		}
	}
	for len(w.deferred) < cap(w.deferred) {
		o := w.src.next()
		if !w.busy(o.id) {
			w.inflight = append(w.inflight, o.id)
			return o, true
		}
		w.deferred = append(w.deferred, o)
	}
	return op{}, false
}

// done frees the name.
func (w *window) done(id int32) {
	for i, f := range w.inflight {
		if f == id {
			w.inflight[i] = w.inflight[len(w.inflight)-1]
			w.inflight = w.inflight[:len(w.inflight)-1]
			return
		}
	}
}
