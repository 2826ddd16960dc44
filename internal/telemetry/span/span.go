// Package span records deterministic, virtual-time causal traces of
// interest lifecycles. Each interest admitted at a consumer opens a
// root span whose trace ID derives from the run seed, the content name
// hash, and the issue sequence — never a wall clock or global rand —
// so a fixed seed reproduces the trace byte for byte. Forwarders,
// links, PIT aggregation, content-store lookups, and countermeasure
// decisions attach child spans, making a finished trace the full
// causal tree of one fetch.
//
// The package depends only on the standard library: telemetry imports
// it, and the simulator packages reach it through the
// telemetry.Provider capability, so no import cycle forms.
package span

// Span kinds. A kind names the stage of an interest's life a record
// covers.
const (
	// KindFetch is the root span: consumer send → delivery or timeout.
	KindFetch = "fetch"
	// KindHop covers one forwarder's handling of the interest,
	// admission through terminal action.
	KindHop = "hop"
	// KindLink covers one link traversal (propagation + serialization).
	KindLink = "link"
	// KindCS is a content-store lookup (hit, miss, or view-probe).
	KindCS = "cs"
	// KindCM is a countermeasure decision; Value carries the added
	// delay in nanoseconds.
	KindCM = "cm"
	// KindCoin is a Random-Cache threshold draw; Value carries the
	// drawn threshold.
	KindCoin = "cm_coin"
	// KindPIT marks PIT aggregation of a duplicate interest.
	KindPIT = "pit"
	// KindUpstream covers a forwarder's wait between sending an
	// interest upstream and the matching Data arriving.
	KindUpstream = "upstream"
	// KindResidency tracks one content-store entry's cache lifetime,
	// insert through eviction. Residency spans have no trace parent.
	KindResidency = "cs_entry"
	// KindDisk covers a second-tier (disk) read on a tiered content
	// store's hit path; Value carries the modeled service cost in
	// nanoseconds. Its presence under a hop marks the serve as a
	// disk hit.
	KindDisk = "disk"
	// KindTier marks inter-tier movement of a cached entry (promotion
	// to RAM or demotion to disk). Tier spans are points outside any
	// trace, like residency spans.
	KindTier = "cs_tier"
)

// Context addresses a position in a trace tree: the trace a span
// belongs to and the span itself, as parent for children. The zero
// Context means "untraced"; recording against it is a no-op for
// trace-scoped kinds.
type Context struct {
	Trace uint64
	Span  uint64
}

// Record is one completed (or still-open) span. Start and End are
// virtual-time offsets in nanoseconds from simulation start. Value is
// kind-specific payload: delay for KindCM, threshold for KindCoin,
// packet size for KindLink.
type Record struct {
	Trace  uint64 `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Node   string `json:"node,omitempty"`
	Name   string `json:"name,omitempty"`
	Action string `json:"action,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Value  uint64 `json:"value,omitempty"`
}

// Context is r's position as a parent for children; zero for a nil
// record (tracing disabled or the interest untraced).
func (r *Record) Context() Context {
	if r == nil {
		return Context{}
	}
	return Context{Trace: r.Trace, Span: r.ID}
}

// chunkSize is the records-per-chunk growth quantum: span storage
// grows by whole chunks so per-record appends never reallocate.
const chunkSize = 256

// Tracer allocates span IDs and stores records. A nil *Tracer is the
// disabled state: every method is nil-receiver-safe and free, so call
// sites need no branches. Tracer is not safe for concurrent use; the
// sweep engine gives each cell its own tracer and merges in cell order.
type Tracer struct {
	seed   uint64
	roots  uint64
	nextID uint64
	chunks [][]Record
	count  int
}

// NewTracer returns an enabled tracer deriving trace IDs from seed.
func NewTracer(seed int64) *Tracer {
	t := &Tracer{}
	t.SetSeed(seed)
	return t
}

// SetSeed re-keys trace-ID derivation. The sweep merger pre-allocates
// per-cell tracers before per-cell seeds are derived, so the seed is
// late-bound here. No-op on a nil tracer.
func (t *Tracer) SetSeed(seed int64) {
	if t == nil {
		return
	}
	t.seed = splitmix64(uint64(seed))
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of records stored.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Reserve pre-grows storage to hold at least n records so subsequent
// hot-path appends stay allocation-free.
func (t *Tracer) Reserve(n int) {
	if t == nil {
		return
	}
	for t.capacity() < n {
		t.chunks = append(t.chunks, make([]Record, 0, chunkSize))
	}
}

func (t *Tracer) capacity() int {
	c := 0
	for _, ch := range t.chunks {
		c += cap(ch)
	}
	return c
}

// alloc appends one zero record and returns a pointer into chunk
// storage. Growth happens one chunk at a time, so the amortized
// per-record cost is a bump append into pre-sized backing.
func (t *Tracer) alloc() *Record {
	if n := len(t.chunks); n > 0 {
		last := t.chunks[n-1]
		if len(last) < cap(last) {
			last = last[:len(last)+1]
			t.chunks[n-1] = last
			t.count++
			return &last[len(last)-1]
		}
	}
	ch := make([]Record, 1, chunkSize)
	t.chunks = append(t.chunks, ch)
	t.count++
	return &ch[0]
}

// StartRoot opens a fetch root span at virtual time at. The trace ID
// mixes the tracer seed, the content-name hash, and the per-tracer
// issue sequence through SplitMix64, so identical seeds yield
// identical IDs and distinct issues never collide in practice.
func (t *Tracer) StartRoot(nameHash uint64, node, name string, at int64) (*Record, Context) {
	if t == nil {
		return nil, Context{}
	}
	t.roots++
	// Nested mixing, not an XOR of two mixed terms: symmetric XOR would
	// cancel whenever nameHash equals the issue sequence, colliding the
	// trace IDs.
	tid := splitmix64(splitmix64(t.seed^splitmix64(nameHash)) + t.roots)
	if tid == 0 {
		tid = 1 // reserve 0 for "untraced"
	}
	t.nextID++
	r := t.alloc()
	r.Trace = tid
	r.ID = t.nextID
	r.Kind = KindFetch
	r.Node = node
	r.Name = name
	r.Start = at
	r.End = at
	return r, Context{Trace: tid, Span: t.nextID}
}

// Begin opens a child span under parent at virtual time at. For
// trace-scoped kinds pass the propagated context; residency spans pass
// a zero context (no trace). Returns nil and a zero context when the
// tracer is disabled.
func (t *Tracer) Begin(parent Context, kind, node, name string, at int64) (*Record, Context) {
	if t == nil {
		return nil, Context{}
	}
	t.nextID++
	r := t.alloc()
	r.Trace = parent.Trace
	r.ID = t.nextID
	r.Parent = parent.Span
	r.Kind = kind
	r.Node = node
	r.Name = name
	r.Start = at
	r.End = at
	return r, Context{Trace: parent.Trace, Span: t.nextID}
}

// End closes r at virtual time at with the given terminal action.
// Safe on a nil tracer or a nil record.
func (t *Tracer) End(r *Record, at int64, action string) {
	if t == nil || r == nil {
		return
	}
	r.End = at
	r.Action = action
}

// Span records a completed child span in one call — the common case
// for point-in-time or precomputed-interval stages (CS lookups,
// countermeasure decisions, link traversals).
func (t *Tracer) Span(parent Context, kind, node, name, action string, start, end int64, value uint64) Context {
	if t == nil {
		return Context{}
	}
	t.nextID++
	r := t.alloc()
	r.Trace = parent.Trace
	r.ID = t.nextID
	r.Parent = parent.Span
	r.Kind = kind
	r.Node = node
	r.Name = name
	r.Action = action
	r.Start = start
	r.End = end
	r.Value = value
	return Context{Trace: parent.Trace, Span: t.nextID}
}

// Reset discards every stored record and restarts the ID and trace
// sequences, so a reset tracer records exactly what a fresh one with
// the same seed would. Storage is released except the first chunk,
// which keeps long-lived callers that export in batches (benchmark
// loops, streaming drivers) from growing without bound.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.roots, t.nextID, t.count = 0, 0, 0
	if len(t.chunks) > 0 {
		t.chunks = t.chunks[:1]
		// alloc re-slices into retained chunk memory without clearing
		// it (that would cost the hot path), so scrub the stale records
		// here where Reset already pays a full storage pass.
		ch := t.chunks[0][:cap(t.chunks[0])]
		for i := range ch {
			ch[i] = Record{}
		}
		t.chunks[0] = ch[:0]
	}
}

// Records returns a flattened copy of every stored record in
// recording order.
func (t *Tracer) Records() []Record {
	if t == nil || t.count == 0 {
		return nil
	}
	out := make([]Record, 0, t.count)
	for _, ch := range t.chunks {
		out = append(out, ch...)
	}
	return out
}

// Merge appends records produced by another tracer (a sweep cell),
// rebasing their span IDs past this tracer's sequence so batches from
// different cells — which each count IDs from 1 — stay unique in the
// merged set. Parent links are rebased by the same offset, so causal
// chains survive intact. Rebasing depends only on merge order (cell
// order under the sweep engine), keeping merged output deterministic.
func (t *Tracer) Merge(records []Record) {
	if t == nil || len(records) == 0 {
		return
	}
	offset := t.nextID
	var maxID uint64
	for i := range records {
		r := t.alloc()
		*r = records[i]
		if records[i].ID > maxID {
			maxID = records[i].ID
		}
		r.ID += offset
		if r.Parent != 0 {
			r.Parent += offset
		}
	}
	t.nextID = offset + maxID
}

// splitmix64 is the SplitMix64 output mixer — the same finalizer the
// sweep engine uses for per-cell seed derivation. Reimplemented here
// (three constants, four lines) to keep the package stdlib-only.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
