package telemetry

import (
	"fmt"

	"ndnprivacy/internal/telemetry/span"
)

// Stage names one outcome of one pipeline stage: a Content Store hit, a
// cache-manager decision, an interest dropped for its scope, a packet
// put on a link. A component reports each outcome exactly once, as a Rec
// handed to its node's Tap, and the stage table below says what each of
// the three consumers — registry counters, the event trace, spans —
// makes of it. The stages are the channel the paper's adversary reads,
// so one record per outcome keeps the three views from disagreeing.
type Stage uint8

// Stages, grouped by the component that records them. Each group is
// contiguous, and a store's second-tier stages close its group: a
// component registers its counters as one range (see Tap.Register).
const (
	// Forwarder (internal/fwd).
	StageInterest Stage = iota
	StageData
	StageCSMiss
	StageCSHit
	StageDiskRead
	StageCMDecision
	StageServe
	StageDelayedServe
	StageGeneratedMiss
	StageAggregate
	StageForward
	StageUnforwarded
	StageDropScope
	StageDropDupNonce
	StageDropPITFull
	StageDropNoRoute
	StageUnsolicited
	StageUpstream
	StageProbeWire
	// Content Store (internal/cache).
	StageLookupHit
	StageLookupMiss
	StageInsert
	StageRefresh
	StageEvict
	StageEvictCapacity
	StageResident
	StageSecondHit
	StagePromote
	StageDemote
	StageTierWrite
	// Pending Interest Table (internal/table).
	StagePITExpire
	// Cache manager (internal/core).
	StageCoin
	// Link (internal/netsim).
	StageLinkTx
	StageLinkDrop

	// NumStages sizes per-stage tallies.
	NumStages
)

// String returns the stage's name in the stage table.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageTable[s].name
}

// Rec is one stage outcome. Every field but Stage is optional; what a
// consumer reads is fixed by the stage's row in the table.
type Rec struct {
	Stage Stage
	// Name is the content name the outcome concerns, nil for none: an
	// *ndn.Name, or a cache manager's correlation-group key. Only a
	// consumer that writes it — the event sink, the span tracer — renders
	// it, once per record, so recording it costs no string.
	Name fmt.Stringer
	// Face is the face the packet arrived on, or left by for forwards.
	Face uint64
	// Action is the outcome's detail where the stage leaves it open: a
	// cache-manager decision, an eviction or link-drop reason.
	Action string
	// T0 and T1 bound the outcome in executor time (nanoseconds); point
	// outcomes set both to now. Events are stamped at T0 and carry
	// T1−T0 as their delay; spans cover [T0, T1]; a closed span ends at
	// T1.
	T0, T1 int64
	// Value is the stage's payload: a delay, a drawn threshold, a wire
	// size, a name hash.
	Value uint64
	// Parent is the trace position the outcome's span hangs under; trace
	// -scoped stages record no span while it is untraced.
	Parent span.Context
	// Span, when non-nil, is the open span this outcome ends: the hop a
	// terminal forwarding stage closes, the residency an eviction closes.
	Span *span.Record
}

// valueField says where an event carries Rec.Value.
type valueField uint8

const (
	valueNone valueField = iota
	valueValue
	valueSize
	valueDelay
)

// stageRow is one line of the stage table.
type stageRow struct {
	name string
	// counter is the registry counter family; "" counts nothing.
	counter string
	// event is the event type; "" emits nothing. action is the event's
	// Action, Rec.Action when empty; value says where Rec.Value goes.
	event  string
	action string
	value  valueField
	// kind is the span kind recorded under Rec.Parent; "" records none.
	// spanAction is that span's action, and the action Rec.Span is
	// ended with; Rec.Action when empty. An open kind is begun and
	// returned for a later stage to end; an untraced kind is recorded
	// even outside any trace.
	kind       string
	spanAction string
	open       bool
	untraced   bool
}

// stageTable maps every stage to its counter, event and span.
var stageTable = [NumStages]stageRow{
	StageInterest:      {name: "interest", counter: "fwd_interests_received_total", kind: span.KindHop, open: true},
	StageData:          {name: "data", counter: "fwd_data_received_total"},
	StageCSMiss:        {name: "cs_miss", counter: "fwd_real_misses_total", event: EvCSMiss, kind: span.KindCS, spanAction: "miss"},
	StageCSHit:         {name: "cs_hit", event: EvCSHit, kind: span.KindCS, spanAction: "hit"},
	StageDiskRead:      {name: "cs_disk_read", counter: "fwd_disk_hits_total", event: EvCSDiskRead, kind: span.KindDisk, spanAction: "disk-read"},
	StageCMDecision:    {name: "cm_decision", event: EvCMDecision, kind: span.KindCM},
	StageServe:         {name: "serve", counter: "fwd_cache_hits_total", spanAction: "serve"},
	StageDelayedServe:  {name: "delayed_serve", counter: "fwd_disguised_hits_total", spanAction: "delayed-serve"},
	StageGeneratedMiss: {name: "generated_miss", counter: "fwd_generated_misses_total"},
	StageAggregate:     {name: "interest_aggregate", counter: "fwd_aggregated_total", event: EvInterestAggregate, kind: span.KindPIT, spanAction: "aggregate"},
	StageForward:       {name: "interest_forward", counter: "fwd_forwarded_total", event: EvInterestForward, spanAction: "forward"},
	StageUnforwarded:   {name: "interest_unforwarded", spanAction: "forward"},
	StageDropScope:     {name: "drop_scope", counter: "fwd_dropped_scope_total", event: EvInterestDrop, action: "scope", spanAction: "drop-scope"},
	StageDropDupNonce:  {name: "drop_dup_nonce", counter: "fwd_dropped_dup_nonce_total", event: EvInterestDrop, action: "dup_nonce", spanAction: "drop-dup-nonce"},
	StageDropPITFull:   {name: "drop_pit_full", counter: "fwd_dropped_pit_full_total", event: EvInterestDrop, action: "pit_full", spanAction: "drop-pit-full"},
	StageDropNoRoute:   {name: "drop_no_route", counter: "fwd_dropped_no_route_total", event: EvInterestDrop, action: "no_route", spanAction: "drop-no-route"},
	StageUnsolicited:   {name: "data_unsolicited", counter: "fwd_unsolicited_data_total", event: EvDataUnsolicited},
	StageUpstream:      {name: "upstream", kind: span.KindUpstream, spanAction: "data"},
	StageProbeWire:     {name: "probe_wire", kind: span.KindCS, untraced: true},

	StageLookupHit:     {name: "cs_lookup_hit", counter: "ndn_cs_hits_total"},
	StageLookupMiss:    {name: "cs_lookup_miss", counter: "ndn_cs_misses_total"},
	StageInsert:        {name: "cs_insert", counter: "ndn_cs_insertions_total", event: EvCSInsert, action: "new", kind: span.KindResidency, open: true, untraced: true},
	StageRefresh:       {name: "cs_refresh", event: EvCSInsert, action: "refresh"},
	StageEvict:         {name: "cs_evict", event: EvCSEvict},
	StageEvictCapacity: {name: "cs_evict_capacity", counter: "ndn_cs_evictions_total", event: EvCSEvict},
	StageResident:      {name: "cs_resident", spanAction: "resident"},
	StageSecondHit:     {name: "cs_second_hit", counter: "ndn_cs_disk_hits_total"},
	StagePromote:       {name: "cs_promote", counter: "ndn_cs_promotions_total", event: EvCSPromote, action: "promote", value: valueDelay, kind: span.KindTier, spanAction: "promote", untraced: true},
	StageDemote:        {name: "cs_demote", counter: "ndn_cs_demotions_total", event: EvCSDemote, action: "demote", kind: span.KindTier, spanAction: "demote", untraced: true},
	StageTierWrite:     {name: "cs_tier_write", counter: "ndn_cs_tier2_writes_total"},

	StagePITExpire: {name: "pit_expire", counter: "ndn_pit_expired_total", event: EvPITExpire},

	StageCoin: {name: "cm_coin", event: EvCMCoin, value: valueValue, kind: span.KindCoin, spanAction: "draw"},

	StageLinkTx:   {name: "link_tx", counter: "netsim_link_tx_total", event: EvLinkTx, value: valueSize, kind: span.KindLink, spanAction: "tx"},
	StageLinkDrop: {name: "link_drop", counter: "netsim_link_dropped_total", event: EvLinkDrop, value: valueSize},
}

// Tap is one node's observation seam: the registry, trace sink and span
// tracer a Provider carries, bound to the node's name, with the node's
// counters resolved once. The forwarder, its Content Store, PIT and cache
// manager share their node's tap; a link has its own, with no node name
// (its counters are unlabeled). A nil *Tap is the disabled state.
type Tap struct {
	node     string
	reg      *Registry
	sink     Sink
	spans    *span.Tracer
	counters [NumStages]*Counter
}

// NewTap builds the tap for the named node from what p carries. It
// returns nil when p is nil or carries nothing, so components guard
// every record with one nil check.
func NewTap(p Provider, node string) *Tap {
	if p == nil {
		return nil
	}
	t := &Tap{node: node, reg: p.Metrics(), sink: p.TraceSink(), spans: p.Spans()}
	if t.reg == nil && t.sink == nil && t.spans == nil {
		return nil
	}
	return t
}

// Register creates the registry counters of stages first through last,
// labeled with the tap's node, so a stage that never fires still exports
// a zero. A component registers the stages it records — contiguous in
// the Stage list — when it attaches.
func (t *Tap) Register(first, last Stage) {
	if t == nil || t.reg == nil {
		return
	}
	for s := first; s <= last; s++ {
		family := stageTable[s].counter
		if family == "" {
			continue
		}
		if t.node != "" {
			family = ID(family, "node", t.node)
		}
		t.counters[s] = t.reg.Counter(family)
	}
}

// Tracer returns the tap's span tracer, nil when spans are off — for
// spans outside the stage table: a consumer's fetch root.
func (t *Tap) Tracer() *span.Tracer {
	if t == nil {
		return nil
	}
	return t.spans
}

// Record hands one stage outcome to every consumer the tap carries: it
// increments the stage's counter, emits the stage's event, records the
// stage's span — begun and returned for an open kind — and ends r.Span.
// It returns nil when no span was begun. Nil-safe.
func (t *Tap) Record(r *Rec) *span.Record {
	if t == nil {
		return nil
	}
	t.counters[r.Stage].Inc()
	row := &stageTable[r.Stage]
	emit := t.sink != nil && row.event != ""
	spanned := t.spans != nil && row.kind != "" && (row.untraced || r.Parent.Trace != 0)
	name := ""
	if r.Name != nil && (emit || spanned) {
		name = r.Name.String()
	}
	if emit {
		ev := Event{At: r.T0, Type: row.event, Node: t.node, Name: name, Face: r.Face, Action: row.action, DelayNS: r.T1 - r.T0}
		if ev.Action == "" {
			ev.Action = r.Action
		}
		switch row.value {
		case valueValue:
			ev.Value = r.Value
		case valueSize:
			ev.Size = int(r.Value)
		case valueDelay:
			ev.DelayNS = int64(r.Value)
		}
		t.sink.Emit(ev)
	}
	if t.spans == nil {
		return nil
	}
	action := row.spanAction
	if action == "" {
		action = r.Action
	}
	var opened *span.Record
	if spanned {
		if row.open {
			opened, _ = t.spans.Begin(r.Parent, row.kind, t.node, name, r.T0)
		} else {
			t.spans.Span(r.Parent, row.kind, t.node, name, action, r.T0, r.T1, r.Value)
		}
	}
	if r.Span != nil {
		t.spans.End(r.Span, r.T1, action)
	}
	return opened
}

// Hooks is the plain Provider: the three consumers, any of which may be
// nil. The sweep engine hands one to each cell, and the trace replayer
// builds its store's tap from one.
type Hooks struct {
	Registry *Registry
	Sink     Sink
	Tracer   *span.Tracer
}

var _ Provider = Hooks{}

// Metrics implements Provider.
func (h Hooks) Metrics() *Registry { return h.Registry }

// TraceSink implements Provider.
func (h Hooks) TraceSink() Sink { return h.Sink }

// Spans implements Provider.
func (h Hooks) Spans() *span.Tracer { return h.Tracer }
