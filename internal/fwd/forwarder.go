// Package fwd implements the NDN forwarding node of Section II: faces,
// the Interest pipeline (Content Store → cache-management decision →
// PIT → FIB) and the Data pipeline (PIT match → cache → downstream
// fan-out), with scope enforcement, nonce-based loop suppression and the
// privacy-preserving cache-management hook the paper's countermeasures
// plug into. Consumer and Producer application endpoints live in
// endpoint.go; topology helpers in topo.go.
package fwd

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// Executor abstracts the forwarder's notion of time and deferred
// execution. netsim.Simulator implements it with a virtual clock for
// experiments; rt.Executor implements it with the wall clock so the same
// forwarder code runs over real network connections (internal/netface).
// Executors guarantee that scheduled callbacks never run concurrently —
// forwarder state needs no locks. Both in-tree executors also implement
// taggedScheduler below; the contract stays at these three methods (and
// scheduleCall keeps its closure fallback) because bench/'s ledger
// prices the pipeline on a minimal executor of its own.
type Executor interface {
	// Now returns the current time as an offset from the executor's
	// epoch.
	Now() time.Duration
	// Schedule runs fn after delay, serialized with all other
	// callbacks.
	Schedule(delay time.Duration, fn func())
	// Rand returns the executor's random source, safe to use from
	// within callbacks.
	Rand() *rand.Rand
}

var _ Executor = (*netsim.Simulator)(nil)

// taggedScheduler is the optional executor capability for event-kind
// tagged scheduling, feeding the simulator's self-profiler, and for
// closure-free packet events (ScheduleCall: a handler bound once plus
// the packet as argument). netsim.Simulator and rt.Executor both
// implement it, on the same queue (rt ignores the kind: there is no
// wall-clock profiler). Resolved once at construction so the per-packet
// cost is one nil check, not a type assertion.
type taggedScheduler interface {
	ScheduleTagged(delay time.Duration, kind netsim.EventKind, fn func())
	ScheduleCall(delay time.Duration, kind netsim.EventKind, call func(any), arg any)
}

// Config assembles a forwarder.
type Config struct {
	// Name identifies the node in diagnostics.
	Name string
	// Sim is the executor everything runs on — a *netsim.Simulator for
	// experiments or an *rt.Executor for real-time operation. When it
	// implements telemetry.Provider (a netsim.Simulator with SetTelemetry
	// or SetSpans called), the node, its store, PIT and cache manager
	// record onto one telemetry.Tap built from it.
	Sim Executor
	// Store is the node's Content Store; nil disables caching entirely
	// (the paper's trivial countermeasure). When the store has a second
	// tier (cache.NewTieredStore) the forwarder delays responses served
	// from it by the modeled disk service cost.
	Store *cache.Store
	// Manager is the cache-management algorithm; defaults to NoPrivacy.
	Manager core.CacheManager
	// ProcessingDelay models per-packet forwarding cost. Applied once
	// per packet handled.
	ProcessingDelay time.Duration
	// PITCapacity bounds the Pending Interest Table; 0 means unbounded.
	// Production routers bound it to contain interest-flooding attacks.
	PITCapacity int
}

// Stats counts forwarder activity; all counters are cumulative.
type Stats struct {
	InterestsReceived uint64
	DataReceived      uint64
	CacheHits         uint64 // hits revealed immediately
	DiskHits          uint64 // hits served from a second (disk) tier
	DisguisedHits     uint64 // hits served after artificial delay
	GeneratedMisses   uint64 // cached content deliberately treated as miss
	RealMisses        uint64 // content genuinely absent
	Forwarded         uint64 // interests sent upstream
	Aggregated        uint64 // interests collapsed into existing PIT entries
	DuplicatesDropped uint64
	ScopeDropped      uint64 // interests not forwarded due to scope
	NoRouteDropped    uint64
	PITRejected       uint64 // interests refused by a full PIT
	Unsolicited       uint64 // data without matching PIT entry
}

// Forwarder is one NDN node (router or host).
type Forwarder struct {
	name string
	sim  Executor
	// cs is the Content Store, nil when caching is disabled. pit runs on
	// cs's composite table (see New), so one hash probe per arriving
	// interest serves both.
	cs    *cache.Store
	pit   *table.PIT
	fib   *table.FIB
	cm    core.CacheManager
	delay time.Duration

	faces    map[table.FaceID]*face
	nextFace table.FaceID

	// counts tallies every stage outcome the node records; Stats reads
	// it. tap is the node's observation seam, nil when nothing is
	// attached, so a stage costs one tally and one branch.
	counts [telemetry.NumStages]uint64
	tap    *telemetry.Tap
	// tagged is the executor's optional kind-tagged scheduler, nil when
	// the executor doesn't support it.
	tagged taggedScheduler
}

type face struct {
	id table.FaceID
	// send transmits a packet out of this face.
	send func(pkt any, size int)
	// dispatch runs a packet that arrived on this face through the
	// pipeline. Bound once at attach time, so receiving a packet
	// schedules it with the packet as argument instead of allocating a
	// closure per packet.
	dispatch func(pkt any)
}

// New builds a forwarder.
func New(cfg Config) (*Forwarder, error) {
	if cfg.Sim == nil {
		return nil, errors.New("fwd: forwarder requires a simulator")
	}
	if cfg.Name == "" {
		return nil, errors.New("fwd: forwarder requires a name")
	}
	cm := cfg.Manager
	if cm == nil {
		cm = core.NewNoPrivacy()
	}
	if grc, isGrouped := cm.(*core.GroupedRandomCache); isGrouped && cfg.Store != nil {
		cfg.Store.SetEvictionHook(grc.OnContentEvicted)
	}
	// The PIT runs on the store's composite table, so one hash probe per
	// arriving interest resolves the CS check, the PIT aggregate check
	// and the PIT insert; a node without a store has a PIT-only table.
	pit := table.NewPIT()
	if cfg.Store != nil {
		pit = table.NewPITOn(cfg.Store.Table())
	}
	pit.SetCapacity(cfg.PITCapacity)

	provider, _ := cfg.Sim.(telemetry.Provider)
	tap := telemetry.NewTap(provider, cfg.Name)
	if tap != nil {
		tap.Register(telemetry.StageInterest, telemetry.StageProbeWire)
		if cfg.Store != nil {
			cfg.Store.Attach(tap)
		}
		pit.Attach(tap)
		if observable, isObservable := cm.(core.Observable); isObservable {
			observable.Attach(tap)
		}
	}
	tagged, _ := cfg.Sim.(taggedScheduler)

	return &Forwarder{
		name:   cfg.Name,
		sim:    cfg.Sim,
		cs:     cfg.Store,
		pit:    pit,
		fib:    table.NewFIB(),
		cm:     cm,
		delay:  cfg.ProcessingDelay,
		faces:  make(map[table.FaceID]*face),
		tap:    tap,
		tagged: tagged,
	}, nil
}

// Name returns the node name.
func (f *Forwarder) Name() string { return f.name }

// Stats returns the activity counters, read off the stage tallies.
func (f *Forwarder) Stats() Stats {
	c := &f.counts
	return Stats{
		InterestsReceived: c[telemetry.StageInterest],
		DataReceived:      c[telemetry.StageData],
		CacheHits:         c[telemetry.StageServe],
		DiskHits:          c[telemetry.StageDiskRead],
		DisguisedHits:     c[telemetry.StageDelayedServe],
		GeneratedMisses:   c[telemetry.StageGeneratedMiss],
		RealMisses:        c[telemetry.StageCSMiss],
		Forwarded:         c[telemetry.StageForward],
		Aggregated:        c[telemetry.StageAggregate],
		DuplicatesDropped: c[telemetry.StageDropDupNonce],
		ScopeDropped:      c[telemetry.StageDropScope],
		NoRouteDropped:    c[telemetry.StageDropNoRoute],
		PITRejected:       c[telemetry.StageDropPITFull],
		Unsolicited:       c[telemetry.StageUnsolicited],
	}
}

// rec is the node's one recording call per stage outcome: it tallies
// the outcome for Stats and hands it to the node's tap.
func (f *Forwarder) rec(r *telemetry.Rec) *span.Record {
	f.counts[r.Stage]++
	if f.tap == nil {
		return nil
	}
	return f.tap.Record(r)
}

// Store returns the node's Content Store (nil if caching is disabled).
func (f *Forwarder) Store() *cache.Store { return f.cs }

// Manager returns the node's cache-management algorithm.
func (f *Forwarder) Manager() core.CacheManager { return f.cm }

// Sim returns the executor the node runs on.
func (f *Forwarder) Sim() Executor { return f.sim }

// AttachPort connects a network link port as a new face. Packets arriving
// on the port enter the forwarding pipeline after the processing delay.
func (f *Forwarder) AttachPort(port *netsim.Port) table.FaceID {
	fc := f.allocFace(port.Send)
	port.SetHandler(func(pkt any) { f.receive(fc, pkt) })
	return fc.id
}

// AttachApp connects a local application as a face. deliver is called
// with every packet the forwarder sends to the application. The
// application injects packets with SendInterest/SendData. Local
// delivery pays the node's processing delay, so app↔daemon round trips
// take nonzero virtual time (the sub-millisecond RTTs of Figure 3(d)).
func (f *Forwarder) AttachApp(deliver func(pkt any)) table.FaceID {
	return f.allocFace(func(pkt any, _ int) {
		f.scheduleCall(f.delay, netsim.EventApp, deliver, pkt)
	}).id
}

// schedule defers fn by delay, tagging the event for the
// self-profiler when the executor supports it.
func (f *Forwarder) schedule(delay time.Duration, kind netsim.EventKind, fn func()) {
	if f.tagged != nil {
		f.tagged.ScheduleTagged(delay, kind, fn)
		return
	}
	f.sim.Schedule(delay, fn)
}

// scheduleCall defers call(arg) by delay. It is the per-packet form of
// schedule: call is a handler bound once and arg the packet, so the
// event allocates nothing. Executors without the capability get the
// equivalent closure.
func (f *Forwarder) scheduleCall(delay time.Duration, kind netsim.EventKind, call func(any), arg any) {
	if f.tagged != nil {
		f.tagged.ScheduleCall(delay, kind, call, arg)
		return
	}
	f.sim.Schedule(delay, func() { call(arg) })
}

// AttachCustom registers a face with a caller-supplied transmit function
// and returns the face ID plus an inject function that delivers packets
// (*ndn.Interest / *ndn.Data) into the forwarding pipeline as if they
// arrived on that face. This is the extension point for transports the
// forwarder doesn't know about — internal/netface uses it for TCP
// connections. The inject function calls Executor.Schedule, so with a
// real-time executor it is safe from any goroutine.
func (f *Forwarder) AttachCustom(send func(pkt any, size int)) (table.FaceID, func(pkt any)) {
	fc := f.allocFace(send)
	return fc.id, func(pkt any) { f.receive(fc, pkt) }
}

// RemoveFace detaches a face. Pending FIB entries naming it become inert
// (packets toward a missing face are dropped); callers should also
// remove or re-point routes.
func (f *Forwarder) RemoveFace(id table.FaceID) {
	delete(f.faces, id)
}

func (f *Forwarder) allocFace(send func(pkt any, size int)) *face {
	f.nextFace++
	id := f.nextFace
	fc := &face{id: id, send: send}
	fc.dispatch = func(pkt any) { f.dispatch(id, pkt) }
	f.faces[id] = fc
	return fc
}

// RegisterPrefix routes the prefix toward the given faces.
func (f *Forwarder) RegisterPrefix(prefix ndn.Name, faces ...table.FaceID) error {
	for _, id := range faces {
		if _, found := f.faces[id]; !found {
			return fmt.Errorf("fwd: %s: unknown face %d", f.name, id)
		}
	}
	return f.fib.Insert(prefix, faces...)
}

// SendInterest injects an interest from a local application face into the
// pipeline, paying the node's processing delay.
func (f *Forwarder) SendInterest(from table.FaceID, interest *ndn.Interest) {
	f.inject(from, interest)
}

// SendData injects a Data packet from a local application face (i.e., the
// application is a producer answering an interest).
func (f *Forwarder) SendData(from table.FaceID, data *ndn.Data) {
	f.inject(from, data)
}

// inject is receive for callers that hold only the face ID.
func (f *Forwarder) inject(from table.FaceID, pkt any) {
	if fc, found := f.faces[from]; found {
		f.receive(fc, pkt)
		return
	}
	// A face that was never attached (or already removed) has no bound
	// handler; the packet still enters the pipeline under that ID.
	f.schedule(f.delay, netsim.EventForward, func() { f.dispatch(from, pkt) })
}

// receive queues one packet arriving on fc for the pipeline, after the
// node's processing delay.
func (f *Forwarder) receive(fc *face, pkt any) {
	f.scheduleCall(f.delay, netsim.EventForward, fc.dispatch, pkt)
}

// dispatch runs one arrived packet through the pipeline.
func (f *Forwarder) dispatch(from table.FaceID, pkt any) {
	switch p := pkt.(type) {
	case *ndn.Interest:
		f.handleInterest(from, p)
	case *ndn.Data:
		f.handleData(from, p)
	}
}

// ProbeWire classifies an encoded Interest against this node's tables
// directly from the raw wire buffer: the interest's name, borrowed from
// the buffer, probes the hash-indexed Content Store and PIT without
// decoding the packet or copying the name. This is the wire-facing fast
// path — the hit/miss decision whose latency the paper's timing
// adversary measures — and it must not allocate. It is a pure probe: no
// Touch, no cache-manager decision, no PIT mutation, and nothing keeps
// the borrowed name, so the caller may reuse wire as soon as it returns.
// Malformed wire reports neither cached nor pending; callers needing the
// full pipeline decode and use handleInterest.
func (f *Forwarder) ProbeWire(wire []byte, now time.Duration) (cached, pending bool) {
	name, err := ndn.InterestNameView(wire)
	if err != nil {
		return false, false
	}
	if f.cs != nil {
		// The store's table is also the PIT's (see New): one probe
		// resolves both the CS and the pending facet.
		_, cached, pending = f.cs.ProbeView(name, now)
	} else {
		pending = f.pit.HasPending(name, now)
	}
	// Wire probes have no propagated context, and the name is never
	// rendered: a traceless point span carries its hash.
	action := "view-miss"
	if cached {
		action = "view-hit"
	}
	probe := telemetry.Rec{Stage: telemetry.StageProbeWire, Action: action, T0: int64(now), T1: int64(now), Value: name.Hash()}
	f.rec(&probe)
	return cached, pending
}

func (f *Forwarder) handleInterest(from table.FaceID, interest *ndn.Interest) {
	now := f.sim.Now()
	t, key, in := int64(now), interest.Name.Key(), uint64(from)

	// Open this node's hop span and re-parent the interest under it, so
	// every stage recorded below — and everything the forwarded copy
	// causes upstream — hangs off this hop. The span covers the node's
	// processing window: arrival (now − processing delay) to terminal.
	hop := f.rec(&telemetry.Rec{Stage: telemetry.StageInterest, Name: key, T0: int64(now - f.delay),
		Parent: span.Context{Trace: interest.TraceID, Span: interest.SpanID}})
	hopCtx := hop.Context()
	if hop != nil {
		cp := *interest
		cp.SpanID = hopCtx.Span
		interest = &cp
	}

	// Content Store lookup, mediated by the cache manager. The PIT runs
	// on the store's composite table (see New), so the probe taken here
	// is reused by the PIT step below — one hash probe per arriving
	// interest resolves CS-check, PIT-aggregate and PIT-insert. A node
	// without a store probes its PIT-only table, and has no lookup for a
	// span to trace.
	var probe pcct.Probe
	var entry *cache.Entry
	var diskCost time.Duration
	lookupCtx := span.Context{}
	if f.cs == nil {
		probe = f.pit.Probe(interest.Name)
	} else {
		probe = f.cs.ProbeName(interest.Name)
		entry, diskCost = f.match(from, interest, &probe, now, hopCtx)
		lookupCtx = hopCtx
	}
	if entry == nil {
		f.rec(&telemetry.Rec{Stage: telemetry.StageCSMiss, Name: key, Face: in, T0: t, T1: t, Parent: lookupCtx})
	} else if f.serveHit(from, interest, entry, diskCost, now, hop) {
		return
	}

	// Scope: an interest with scope s may traverse at most s entities,
	// source included. An interest that cannot be forwarded further and
	// was not answered from the cache dies here, before leaving PIT
	// state — a dangling PIT entry would wrongly collapse later honest
	// interests for the same name.
	if interest.Scope == 1 {
		f.rec(&telemetry.Rec{Stage: telemetry.StageDropScope, Name: key, Face: in, T0: t, T1: t, Span: hop})
		return
	}

	// PIT, on the probe taken above (InsertProbed re-probes only if a
	// stale purge or a tier movement mutated the table since). Every
	// outcome but a new entry ends the interest here.
	outcome, tok := f.pit.InsertProbed(interest, from, now, &probe)
	if outcome != table.InsertedNew {
		f.rec(&telemetry.Rec{Stage: pitStages[outcome], Name: key, Face: in, T0: t, T1: t, Parent: hopCtx, Span: hop})
		return
	}

	upstream := interest
	if interest.Scope > 1 || tok != interest.PITToken {
		cp := *interest
		if cp.Scope > 1 {
			cp.Scope--
		}
		// Stamp this node's own PIT entry token on the upstream copy, so
		// the answering Data comes back carrying a direct table handle
		// and satisfaction skips the hash probe (see pcct; the NDNLPv2
		// PIT-token analog).
		cp.PITToken = tok
		upstream = &cp
	}

	// Forward on every next hop but the arrival face (never reflect an
	// interest to its source). A name no route covers drops; one whose
	// next hops are all unusable ends its hop unforwarded.
	nextHops := f.fib.NextHops(interest.Name)
	if nextHops == nil {
		f.rec(&telemetry.Rec{Stage: telemetry.StageDropNoRoute, Name: key, Face: in, T0: t, T1: t, Span: hop})
		return
	}
	forwarded := false
	for _, next := range nextHops {
		outFace, found := f.faces[next]
		if next == from || !found {
			continue
		}
		forwarded = true
		f.rec(&telemetry.Rec{Stage: telemetry.StageForward, Name: key, Face: uint64(next), T0: t, T1: t, Span: hop})
		outFace.send(upstream, ndn.InterestWireSize(upstream))
	}
	if !forwarded {
		f.rec(&telemetry.Rec{Stage: telemetry.StageUnforwarded, T0: t, T1: t, Span: hop})
	}
}

// pitStages maps each PIT outcome that ends an interest to its stage.
var pitStages = [...]telemetry.Stage{
	table.Aggregated:     telemetry.StageAggregate,
	table.DuplicateNonce: telemetry.StageDropDupNonce,
	table.RejectedFull:   telemetry.StageDropPITFull,
}

// match finds the cached entry answering interest, over the probe
// taken for it: the table first, then the second tier. It returns nil on
// a miss.
func (f *Forwarder) match(from table.FaceID, interest *ndn.Interest, probe *pcct.Probe, now time.Duration, hopCtx span.Context) (*cache.Entry, time.Duration) {
	if entry, found := f.cs.MatchProbed(interest, probe, now); found {
		return entry, 0
	}
	// A hit served from the second (disk) tier pays that tier's modeled
	// service latency on top of everything else — the third latency class
	// the tiered-store adversary measures. Real (wall-clock) backends
	// report zero cost here; their I/O time is physically observable
	// instead.
	entry, diskCost, found := f.cs.MatchSecond(interest, now)
	if !found {
		return nil, 0
	}
	t := int64(now)
	f.rec(&telemetry.Rec{Stage: telemetry.StageDiskRead, Name: interest.Name.Key(), Face: uint64(from),
		T0: t, T1: t + int64(diskCost), Value: uint64(diskCost), Parent: hopCtx})
	return entry, diskCost
}

// serveHit runs a cache hit past the cache manager and reports whether
// the cache answered; a miss the manager generates goes on to the PIT.
func (f *Forwarder) serveHit(from table.FaceID, interest *ndn.Interest, entry *cache.Entry, diskCost, now time.Duration, hop *span.Record) bool {
	t, key, in, hopCtx := int64(now), interest.Name.Key(), uint64(from), hop.Context()
	f.rec(&telemetry.Rec{Stage: telemetry.StageCSHit, Name: key, Face: in, T0: t, T1: t, Parent: hopCtx})
	// Section VII: a hit refreshes the entry even when the response is
	// disguised.
	f.cs.Touch(entry.Data.Name)
	decision := f.cm.OnCacheHit(entry, interest, now)
	// The decision's span covers the artificial delay the countermeasure
	// added: zero-width for serve/miss.
	delay := decision.Delay
	f.rec(&telemetry.Rec{Stage: telemetry.StageCMDecision, Name: key, Face: in, Action: decision.Action.String(),
		T0: t, T1: t + int64(delay), Value: uint64(delay), Parent: hopCtx})
	switch decision.Action {
	case core.ActionServe:
		data := f.serveCopy(entry, interest, hopCtx)
		f.rec(&telemetry.Rec{Stage: telemetry.StageServe, T0: t, T1: t + int64(diskCost), Span: hop})
		if diskCost > 0 {
			f.schedule(diskCost, netsim.EventDisk, func() { f.sendData(from, data) })
		} else {
			f.sendData(from, data)
		}
		return true
	case core.ActionDelayedServe:
		data := f.serveCopy(entry, interest, hopCtx)
		// The artificial delay replays the original miss latency; a
		// disk-resident entry still pays the read first, so the total
		// exceeds the replayed γ_C — the residual leak the tiered
		// experiments measure.
		f.rec(&telemetry.Rec{Stage: telemetry.StageDelayedServe, T0: t, T1: t + int64(delay+diskCost), Span: hop})
		f.schedule(delay+diskCost, netsim.EventCountermeasure, func() { f.sendData(from, data) })
		return true
	}
	f.rec(&telemetry.Rec{Stage: telemetry.StageGeneratedMiss})
	return false
}

// serveCopy is the Data a cache hit answers with: a header copy of the
// cached packet — Payload and Signature shared, and the cached packet
// itself never written (see ndn.Data) — stamped with this hop's span
// context and the requester's PIT token (see ndn.Data.PITToken).
func (f *Forwarder) serveCopy(entry *cache.Entry, interest *ndn.Interest, hopCtx span.Context) *ndn.Data {
	data := *entry.Data
	data.TraceID, data.SpanID = hopCtx.Trace, hopCtx.Span
	data.PITToken = interest.PITToken
	return &data
}

func (f *Forwarder) handleData(from table.FaceID, data *ndn.Data) {
	now := f.sim.Now()
	t, key := int64(now), data.Name.Key()
	f.rec(&telemetry.Rec{Stage: telemetry.StageData})

	// The Data's PIT token — stamped by this node onto the upstream
	// interest copy — resolves the pending entry directly; a zero or
	// stale token degrades to the plain hash-probe sweep.
	res, matched := f.pit.SatisfyByToken(data, data.PITToken, now)
	if !matched {
		f.rec(&telemetry.Rec{Stage: telemetry.StageUnsolicited, Name: key, Face: uint64(from), T0: t, T1: t})
		return
	}

	// The upstream span covers this node's wait for the content: PIT
	// admission of the earliest pending interest to Data arrival. Its
	// parent is that interest's hop span, recorded via the PIT entry.
	f.rec(&telemetry.Rec{Stage: telemetry.StageUpstream, Name: key, T0: int64(res.FirstCreated), T1: t,
		Parent: span.Context{Trace: res.Trace, Span: res.Span}})

	// Cache unconditionally (the paper's routers cache all content) and
	// let the manager initialize privacy state.
	if f.cs != nil {
		fetchDelay := now - res.FirstCreated
		// The store keeps the arriving packet as is, upstream's hop stamps
		// included; serve paths stamp their own on a header copy. The
		// local hop's span context goes on the entry, so cache-manager
		// state changes on later cached-draw paths (coin spans) parent
		// under the hop that fetched the content.
		entry := f.cs.Insert(data, now, fetchDelay)
		entry.Fetch = span.Context{Trace: res.Trace, Span: res.Span}
		if res.PrivacyRequested && !entry.NonPrivateTrigger {
			// Consumer-driven marking (Section V).
			entry.Private = true
		}
		f.cm.OnContentCached(entry, fetchDelay, now)
	}

	for i, hop := range res.Faces {
		// Downstream copies are header copies sharing the payload (packet
		// bytes are immutable once sent). They carry the satisfied PIT
		// entry's context, so the return path's link spans join the same
		// trace — and each face's own PIT token, so the next node
		// satisfies by handle too.
		down := *data
		down.TraceID, down.SpanID = res.Trace, res.Span
		down.PITToken = res.Tokens[i]
		f.sendData(hop, &down)
	}
}

func (f *Forwarder) sendData(to table.FaceID, data *ndn.Data) {
	outFace, found := f.faces[to]
	if !found {
		return
	}
	outFace.send(data, ndn.DataWireSize(data))
}
