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
	// experiments or an *rt.Executor for real-time operation.
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
	// Metrics and Trace attach observability explicitly. When nil, both
	// are inherited from Sim if it implements telemetry.Provider (a
	// netsim.Simulator with SetTelemetry called), so instrumenting a
	// whole topology is one call on the simulator.
	Metrics *telemetry.Registry
	Trace   telemetry.Sink
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

	stats Stats
	// tel is nil when telemetry is disabled, so every instrumentation
	// site costs exactly one branch and zero allocations on the hot path.
	tel *nodeTelemetry
	// spans is nil when span tracing is disabled; like tel, every
	// recording site is one branch then.
	spans *span.Tracer
	// tagged is the executor's optional kind-tagged scheduler, nil when
	// the executor doesn't support it.
	tagged taggedScheduler
}

// nodeTelemetry carries a forwarder's registered counters and trace
// sink, resolved once at construction so per-packet accounting is a
// direct atomic increment — no registry lookups in the pipeline.
type nodeTelemetry struct {
	sink telemetry.Sink
	node string

	interestsReceived *telemetry.Counter
	dataReceived      *telemetry.Counter
	cacheHits         *telemetry.Counter
	diskHits          *telemetry.Counter
	disguisedHits     *telemetry.Counter
	generatedMisses   *telemetry.Counter
	realMisses        *telemetry.Counter
	forwarded         *telemetry.Counter
	aggregated        *telemetry.Counter
	dropScope         *telemetry.Counter
	dropDupNonce      *telemetry.Counter
	dropNoRoute       *telemetry.Counter
	dropPITFull       *telemetry.Counter
	unsolicited       *telemetry.Counter
}

// newNodeTelemetry resolves the forwarder metric set. reg may be nil
// (trace-only instrumentation): Registry methods are nil-safe and hand
// back standalone counters.
func newNodeTelemetry(reg *telemetry.Registry, sink telemetry.Sink, node string) *nodeTelemetry {
	counter := func(name string) *telemetry.Counter {
		return reg.Counter(telemetry.ID(name, "node", node))
	}
	return &nodeTelemetry{
		sink:              sink,
		node:              node,
		interestsReceived: counter("fwd_interests_received_total"),
		dataReceived:      counter("fwd_data_received_total"),
		cacheHits:         counter("fwd_cache_hits_total"),
		diskHits:          counter("fwd_disk_hits_total"),
		disguisedHits:     counter("fwd_disguised_hits_total"),
		generatedMisses:   counter("fwd_generated_misses_total"),
		realMisses:        counter("fwd_real_misses_total"),
		forwarded:         counter("fwd_forwarded_total"),
		aggregated:        counter("fwd_aggregated_total"),
		dropScope:         counter("fwd_dropped_scope_total"),
		dropDupNonce:      counter("fwd_dropped_dup_nonce_total"),
		dropNoRoute:       counter("fwd_dropped_no_route_total"),
		dropPITFull:       counter("fwd_dropped_pit_full_total"),
		unsolicited:       counter("fwd_unsolicited_data_total"),
	}
}

// emit sends one trace event stamped with the node name; callers guard
// with f.tel != nil.
func (t *nodeTelemetry) emit(ev telemetry.Event) {
	if t.sink == nil {
		return
	}
	ev.Node = t.node
	t.sink.Emit(ev) //ndnlint:allow alloccheck — trace emission is opt-in instrumentation
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

	reg, sink := cfg.Metrics, cfg.Trace
	var spans *span.Tracer
	if provider, isProvider := cfg.Sim.(telemetry.Provider); isProvider {
		if reg == nil {
			reg = provider.Metrics()
		}
		if sink == nil {
			sink = provider.TraceSink()
		}
		spans = provider.Spans()
	}
	var tel *nodeTelemetry
	if reg != nil || sink != nil {
		tel = newNodeTelemetry(reg, sink, cfg.Name)
		if cfg.Store != nil {
			cfg.Store.Instrument(reg, sink, cfg.Name)
		}
		pit.Instrument(reg, sink, cfg.Name)
		if obs, isObs := cm.(core.TraceInstrumentable); isObs {
			obs.SetTraceSink(sink, cfg.Name)
		}
	}
	if spans != nil {
		if cfg.Store != nil {
			cfg.Store.InstrumentSpans(spans, cfg.Name)
		}
		if si, isSpanInst := cm.(core.SpanInstrumentable); isSpanInst {
			si.SetSpanTracer(spans, cfg.Name)
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
		tel:    tel,
		spans:  spans,
		tagged: tagged,
	}, nil
}

// Name returns the node name.
func (f *Forwarder) Name() string { return f.name }

// Stats returns a copy of the activity counters.
func (f *Forwarder) Stats() Stats { return f.stats }

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
// directly from the raw wire buffer: a zero-copy name view probes the
// hash-indexed Content Store and PIT without decoding the packet or
// materializing an owned name. This is the wire-facing fast path — the
// hit/miss decision whose latency the paper's timing adversary measures
// — and it must not allocate. It is a pure probe: no Touch, no cache-
// manager decision, no PIT mutation. Oversized names (ErrViewCapacity) and
// malformed wire report neither cached nor pending; callers needing the
// full pipeline decode and use handleInterest.
//
//ndnlint:hotpath — wire→CS/PIT-lookup fast path; must not allocate
func (f *Forwarder) ProbeWire(wire []byte, now time.Duration) (cached, pending bool) {
	v, err := ndn.InterestNameView(wire)
	if err != nil {
		return false, false
	}
	// View lookups are read-only: the view is compared against cached
	// names and never retained past the call, so it stays on the stack.
	if f.cs != nil {
		// The store's table is also the PIT's (see New): one probe
		// resolves both the CS and the pending facet.
		_, cached, pending = f.cs.ProbeView(&v, now) //ndnlint:allow viewsafe — ProbeView reads the view, never retains it
	} else {
		pending = f.pit.HasPendingView(&v, now)
	}
	if f.spans != nil {
		// Traceless point span: wire probes have no propagated context,
		// and the name stays un-materialized — the view's hash rides in
		// Value instead.
		action := "view-miss"
		if cached {
			action = "view-hit"
		}
		f.spans.Span(span.Context{}, span.KindCS, f.name, "", action, int64(now), int64(now), v.Hash())
	}
	return cached, pending
}

func (f *Forwarder) handleInterest(from table.FaceID, interest *ndn.Interest) {
	f.stats.InterestsReceived++
	if f.tel != nil {
		f.tel.interestsReceived.Inc()
	}
	now := f.sim.Now()

	// Open this node's hop span and re-parent the interest under it, so
	// every stage recorded below — and everything the forwarded copy
	// causes upstream — hangs off this hop. The span covers the node's
	// processing window: arrival (now − processing delay) to terminal.
	var hop *span.Record
	var hopCtx span.Context
	if f.spans != nil && interest.TraceID != 0 {
		hop, hopCtx = f.spans.Begin(span.Context{Trace: interest.TraceID, Span: interest.SpanID},
			span.KindHop, f.name, interest.Name.Key(), int64(now-f.delay))
		cp := *interest
		cp.SpanID = hopCtx.Span
		interest = &cp
	}

	// Content Store lookup, mediated by the cache manager. The PIT runs
	// on the store's composite table (see New), so the probe taken here
	// is reused by the PIT step below — one hash probe per arriving
	// interest resolves CS-check, PIT-aggregate and PIT-insert. A node
	// without a store probes its PIT-only table.
	var probe pcct.Probe
	if f.cs == nil {
		probe = f.pit.Probe(interest.Name)
		f.stats.RealMisses++
		f.missTelemetry(interest, from, now)
	} else {
		probe = f.cs.ProbeName(interest.Name)
		entry, found := f.cs.MatchProbed(interest, &probe, now)
		// A hit served from the second (disk) tier pays that tier's
		// modeled service latency on top of everything else — the third
		// latency class the tiered-store adversary measures. Real
		// (wall-clock) backends report zero cost here; their I/O time is
		// physically observable instead.
		var diskCost time.Duration
		if !found {
			if entry, diskCost, found = f.cs.MatchSecond(interest, now); found {
				f.stats.DiskHits++
				if f.tel != nil {
					f.tel.diskHits.Inc()
					f.tel.emit(telemetry.Event{
						At: int64(now), Type: telemetry.EvCSDiskRead,
						Name: interest.Name.Key(), Face: uint64(from),
						DelayNS: int64(diskCost),
					})
				}
				if hop != nil {
					f.spans.Span(hopCtx, span.KindDisk, f.name, interest.Name.Key(),
						"disk-read", int64(now), int64(now)+int64(diskCost), uint64(diskCost))
				}
			}
		}
		if found {
			if hop != nil {
				f.spans.Span(hopCtx, span.KindCS, f.name, interest.Name.Key(), "hit", int64(now), int64(now), 0)
			}
			// Section VII: a hit refreshes the entry even when the
			// response is disguised.
			f.cs.Touch(entry.Data.Name)
			decision := f.cm.OnCacheHit(entry, interest, now)
			if f.tel != nil {
				f.tel.emit(telemetry.Event{
					At: int64(now), Type: telemetry.EvCSHit,
					Name: interest.Name.Key(), Face: uint64(from),
				})
				f.tel.emit(telemetry.Event{
					At: int64(now), Type: telemetry.EvCMDecision,
					Name: interest.Name.Key(), Face: uint64(from),
					Action: decision.Action.String(), DelayNS: int64(decision.Delay),
				})
			}
			if hop != nil {
				// The decision span covers the artificial delay the
				// countermeasure added: zero-width for serve/miss.
				f.spans.Span(hopCtx, span.KindCM, f.name, interest.Name.Key(),
					decision.Action.String(), int64(now), int64(now)+int64(decision.Delay), uint64(decision.Delay))
			}
			switch decision.Action {
			case core.ActionServe:
				f.stats.CacheHits++
				if f.tel != nil {
					f.tel.cacheHits.Inc()
				}
				data := f.serveCopy(entry, interest, hopCtx)
				f.spans.End(hop, int64(now)+int64(diskCost), "serve")
				if diskCost > 0 {
					f.schedule(diskCost, netsim.EventDisk, func() { f.sendData(from, data) })
				} else {
					f.sendData(from, data)
				}
				return
			case core.ActionDelayedServe:
				f.stats.DisguisedHits++
				if f.tel != nil {
					f.tel.disguisedHits.Inc()
				}
				data := f.serveCopy(entry, interest, hopCtx)
				// The artificial delay replays the original miss latency;
				// a disk-resident entry still pays the read first, so the
				// total exceeds the replayed γ_C — the residual leak the
				// tiered experiments measure.
				f.spans.End(hop, int64(now)+int64(decision.Delay)+int64(diskCost), "delayed-serve")
				f.schedule(decision.Delay+diskCost, netsim.EventCountermeasure, func() { f.sendData(from, data) })
				return
			case core.ActionMiss:
				f.stats.GeneratedMisses++
				if f.tel != nil {
					f.tel.generatedMisses.Inc()
				}
				// Fall through to the miss path: forward upstream.
			}
		} else {
			f.stats.RealMisses++
			f.missTelemetry(interest, from, now)
			if hop != nil {
				f.spans.Span(hopCtx, span.KindCS, f.name, interest.Name.Key(), "miss", int64(now), int64(now), 0)
			}
		}
	}

	// Scope: an interest with scope s may traverse at most s entities,
	// source included. An interest that cannot be forwarded further and
	// was not answered from the cache dies here, before leaving PIT
	// state — a dangling PIT entry would wrongly collapse later honest
	// interests for the same name.
	if interest.Scope == 1 {
		f.stats.ScopeDropped++
		f.dropTelemetry(interest, from, now, "scope")
		f.spans.End(hop, int64(now), "drop-scope")
		return
	}

	// PIT, on the probe taken above (InsertProbed re-probes only if a
	// stale purge or a tier movement mutated the table since).
	outcome, tok := f.pit.InsertProbed(interest, from, now, &probe)
	switch outcome {
	case table.Aggregated:
		f.stats.Aggregated++
		if f.tel != nil {
			f.tel.aggregated.Inc()
			f.tel.emit(telemetry.Event{
				At: int64(now), Type: telemetry.EvInterestAggregate,
				Name: interest.Name.Key(), Face: uint64(from),
			})
		}
		if hop != nil {
			f.spans.Span(hopCtx, span.KindPIT, f.name, interest.Name.Key(), "aggregate", int64(now), int64(now), 0)
			f.spans.End(hop, int64(now), "aggregate")
		}
		return
	case table.DuplicateNonce:
		f.stats.DuplicatesDropped++
		f.dropTelemetry(interest, from, now, "dup_nonce")
		f.spans.End(hop, int64(now), "drop-dup-nonce")
		return
	case table.RejectedFull:
		f.stats.PITRejected++
		f.dropTelemetry(interest, from, now, "pit_full")
		f.spans.End(hop, int64(now), "drop-pit-full")
		return
	case table.InsertedNew:
		// Forward upstream.
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

	nextHops := f.fib.NextHops(interest.Name)
	if nextHops == nil {
		f.stats.NoRouteDropped++
		f.dropTelemetry(interest, from, now, "no_route")
		f.spans.End(hop, int64(now), "drop-no-route")
		return
	}
	for _, hop := range nextHops {
		if hop == from {
			continue // never reflect an interest to its source
		}
		outFace, found := f.faces[hop]
		if !found {
			continue
		}
		f.stats.Forwarded++
		if f.tel != nil {
			f.tel.forwarded.Inc()
			f.tel.emit(telemetry.Event{
				At: int64(now), Type: telemetry.EvInterestForward,
				Name: interest.Name.Key(), Face: uint64(hop),
			})
		}
		outFace.send(upstream, ndn.InterestWireSize(upstream))
	}
	f.spans.End(hop, int64(now), "forward")
}

// serveCopy is the Data a cache hit answers with: a header copy of the
// cached packet — Payload and Signature shared, since packet bytes are
// immutable once sent (see ndn.Data) — stamped with this hop's span
// context and the requester's PIT token (see ndn.Data.PITToken).
func (f *Forwarder) serveCopy(entry *cache.Entry, interest *ndn.Interest, hopCtx span.Context) *ndn.Data {
	data := *entry.Data
	data.TraceID, data.SpanID = hopCtx.Trace, hopCtx.Span
	data.PITToken = interest.PITToken
	return &data
}

// missTelemetry accounts a content-store miss; one branch when
// disabled. The miss/hit delay gap is the paper's attack signal, so
// the accounting must not perturb it.
//
//ndnlint:hotpath — runs on every cache miss
func (f *Forwarder) missTelemetry(interest *ndn.Interest, from table.FaceID, now time.Duration) {
	if f.tel == nil {
		return
	}
	f.tel.realMisses.Inc()
	f.tel.emit(telemetry.Event{
		At: int64(now), Type: telemetry.EvCSMiss,
		Name: interest.Name.Key(), Face: uint64(from),
	})
}

// dropTelemetry accounts an interest dying at this node for the given
// reason (scope, dup_nonce, pit_full, no_route).
//
//ndnlint:hotpath
func (f *Forwarder) dropTelemetry(interest *ndn.Interest, from table.FaceID, now time.Duration, reason string) {
	if f.tel == nil {
		return
	}
	switch reason {
	case "scope":
		f.tel.dropScope.Inc()
	case "dup_nonce":
		f.tel.dropDupNonce.Inc()
	case "pit_full":
		f.tel.dropPITFull.Inc()
	case "no_route":
		f.tel.dropNoRoute.Inc()
	}
	f.tel.emit(telemetry.Event{
		At: int64(now), Type: telemetry.EvInterestDrop,
		Name: interest.Name.Key(), Face: uint64(from), Action: reason,
	})
}

func (f *Forwarder) handleData(from table.FaceID, data *ndn.Data) {
	f.stats.DataReceived++
	if f.tel != nil {
		f.tel.dataReceived.Inc()
	}
	now := f.sim.Now()

	// The Data's PIT token — stamped by this node onto the upstream
	// interest copy — resolves the pending entry directly; a zero or
	// stale token degrades to the plain hash-probe sweep.
	res, matched := f.pit.SatisfyByToken(data, data.PITToken, now)
	if !matched {
		f.stats.Unsolicited++
		if f.tel != nil {
			f.tel.unsolicited.Inc()
			f.tel.emit(telemetry.Event{
				At: int64(now), Type: telemetry.EvDataUnsolicited,
				Name: data.Name.Key(), Face: uint64(from),
			})
		}
		return
	}

	// The upstream span covers this node's wait for the content: PIT
	// admission of the earliest pending interest to Data arrival. Its
	// parent is that interest's hop span, recorded via the PIT entry.
	if f.spans != nil && res.Trace != 0 {
		f.spans.Span(span.Context{Trace: res.Trace, Span: res.Span}, span.KindUpstream,
			f.name, data.Name.Key(), "data", int64(res.FirstCreated), int64(now), 0)
	}

	// Cache unconditionally (the paper's routers cache all content) and
	// let the manager initialize privacy state.
	if f.cs != nil {
		fetchDelay := now - res.FirstCreated
		entry := f.cs.Insert(data, now, fetchDelay)
		// Re-stamp the cached copy with the local hop's span context, so
		// cache-manager state changes on later cached-draw paths (coin
		// spans) parent under the hop that fetched the content.
		entry.Data.TraceID, entry.Data.SpanID = res.Trace, res.Span
		// The cached copy keeps no PIT token: tokens are hop-local and
		// serve paths stamp the requester's own token on each response.
		entry.Data.PITToken = 0
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
