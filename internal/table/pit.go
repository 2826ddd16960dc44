package table

import (
	"sort"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/telemetry"
)

// InsertOutcome describes what happened when an interest reached the PIT.
type InsertOutcome int

// PIT insertion outcomes.
const (
	// InsertedNew means no pending entry existed: the interest must be
	// forwarded upstream.
	InsertedNew InsertOutcome = iota + 1
	// Aggregated means a pending entry for the same name existed; only
	// the arrival face was recorded ("collapsing", Section II).
	Aggregated
	// DuplicateNonce means this exact interest (name+nonce) was already
	// seen — a loop or a retransmission duplicate — and must be dropped.
	DuplicateNonce
	// RejectedFull means the table is at capacity and cannot admit a
	// new pending name; the interest must be dropped.
	RejectedFull
)

// String implements fmt.Stringer.
func (o InsertOutcome) String() string {
	switch o {
	case InsertedNew:
		return "new"
	case Aggregated:
		return "aggregated"
	case DuplicateNonce:
		return "duplicate-nonce"
	case RejectedFull:
		return "rejected-full"
	default:
		return "unknown"
	}
}

// PIT is the Pending Interest Table, backed by the PIT facets of a
// PIT-CS composite table (internal/pcct). A forwarder normally runs the
// PIT on the same table as its Content Store (NewPITOn), so one hash
// probe per arriving interest resolves CS-check, PIT-aggregate and
// PIT-insert together; NewPIT builds a private table for standalone
// use. Time is supplied by the caller as a virtual-clock offset so the
// table works under the discrete-event simulator. PIT is not safe for
// concurrent use.
type PIT struct {
	t        *pcct.Table
	capacity int
	rejected uint64
	expired  uint64
	// tap is the node's observation seam, nil when nothing is attached:
	// it records the entries that lapse unanswered. Refused admissions
	// are the forwarder's drop_pit_full stage.
	tap *telemetry.Tap

	// facesBuf and tokensBuf are the reused, parallel result slices
	// SatisfyByToken hands out: facesBuf[i] awaits the content and
	// tokensBuf[i] is that face's downstream PIT token (zero when the
	// face is an application). Both are valid until the next Satisfy
	// call. expireBuf is the reused Expire sweep scratch.
	facesBuf  []FaceID
	tokensBuf []uint64
	expireBuf []*pcct.Entry
}

// NewPIT returns an empty, unbounded PIT on its own private table.
func NewPIT() *PIT {
	return NewPITOn(pcct.New(pcct.PolicyLRU))
}

// NewPITOn returns an empty, unbounded PIT running on t — typically a
// Content Store's table (cache.Store.Table), fusing both tables'
// lookups into one probe.
func NewPITOn(t *pcct.Table) *PIT {
	return &PIT{t: t}
}

// Attach connects the table to its node's tap, which records every
// entry that lapses unanswered.
func (p *PIT) Attach(tap *telemetry.Tap) {
	p.tap = tap
	tap.Register(telemetry.StagePITExpire, telemetry.StagePITExpire)
}

// Expired returns the running count of entries removed after lapsing
// unanswered.
func (p *PIT) Expired() uint64 { return p.expired }

// expireEntry removes one lapsed entry and accounts for it. The table
// entry survives if a CS facet shares it.
func (p *PIT) expireEntry(e *pcct.Entry, now time.Duration) {
	name := e.Name()
	p.t.DetachPIT(e)
	p.t.ReleaseIfEmpty(e)
	p.expired++
	if p.tap != nil {
		// The record hands the name to the tap's consumers, so it is
		// copied out of the released entry only when some are attached.
		lapsed := name
		p.tap.Record(&telemetry.Rec{Stage: telemetry.StagePITExpire, Name: &lapsed, T0: int64(now), T1: int64(now)})
	}
}

// SetCapacity bounds the number of distinct pending names; 0 restores
// unbounded. PIT state is attacker-fillable (one entry per distinct
// uncached name), so production routers bound it — interest flooding
// then degrades service for new names instead of exhausting memory.
func (p *PIT) SetCapacity(n int) {
	if n < 0 {
		n = 0
	}
	p.capacity = n
}

// Rejected returns how many interests were refused because the table was
// full.
func (p *PIT) Rejected() uint64 { return p.rejected }

// Len returns the number of distinct pending names.
func (p *PIT) Len() int { return p.t.LenPIT() }

// Probe captures one hash probe of the PIT's table for name, for use
// with InsertProbed. A forwarder with a Content Store reuses the store's
// probe of the shared table instead.
func (p *PIT) Probe(name ndn.Name) pcct.Probe { return p.t.Probe(name) }

// InsertProbed records that interest arrived on face at virtual time
// now, reusing an earlier probe of interest.Name: the forwarder probes
// once, checks the CS via the same probe, and inserts here without
// re-hashing. It returns the entry's direct-access token (for
// InsertedNew and Aggregated outcomes): the forwarder stamps it on the
// upstream copy so the answering Data can come back with a table
// handle. Only admitting a new pending name may allocate — and once the
// table's arena and the facet's slices have grown, not even that — so
// aggregation and duplicate-nonce handling stay allocation-free.
func (p *PIT) InsertProbed(interest *ndn.Interest, face FaceID, now time.Duration, pr *pcct.Probe) (InsertOutcome, uint64) {
	lifetime := interest.Lifetime
	if lifetime <= 0 {
		lifetime = ndn.DefaultInterestLifetime
	}
	if !pr.Valid(p.t) {
		*pr = p.t.Probe(interest.Name)
	}
	e := pr.Entry
	if e != nil && e.PITActive() && now >= e.PIT().Expires {
		// Stale entry: treat as absent. The release may recycle the
		// whole entry (no CS facet), invalidating the probe; PutProbed
		// below re-probes.
		p.expireEntry(e, now)
	}
	if e == nil || !e.PITActive() {
		if p.capacity > 0 && p.t.LenPIT() >= p.capacity {
			// Reclaim expired entries before refusing admission.
			p.Expire(now)
			if p.t.LenPIT() >= p.capacity {
				p.rejected++
				return RejectedFull, 0
			}
		}
		e = p.t.PutProbed(pr, interest.Name)
		pf := p.t.AttachPIT(e)
		pf.Expires = now + lifetime
		pf.Created = now
		pf.Privacy = interest.Privacy == ndn.PrivacyRequested
		pf.Trace = interest.TraceID
		pf.Span = interest.SpanID
		pf.Faces = append(pf.Faces, pcct.FaceRec{Face: int64(face), Token: interest.PITToken})
		pf.Nonces = append(pf.Nonces, interest.Nonce)
		return InsertedNew, p.t.TokenOf(e)
	}
	pf := e.PIT()
	for _, nonce := range pf.Nonces {
		if nonce == interest.Nonce {
			return DuplicateNonce, 0
		}
	}
	pf.Nonces = append(pf.Nonces, interest.Nonce)
	recorded := false
	for i := range pf.Faces {
		if pf.Faces[i].Face == int64(face) {
			if interest.PITToken != 0 {
				pf.Faces[i].Token = interest.PITToken
			}
			recorded = true
			break
		}
	}
	if !recorded {
		pf.Faces = append(pf.Faces, pcct.FaceRec{Face: int64(face), Token: interest.PITToken})
	}
	if exp := now + lifetime; exp > pf.Expires {
		pf.Expires = exp
	}
	return Aggregated, p.t.TokenOf(e)
}

// SatisfyResult describes the pending entries one Data packet consumed.
type SatisfyResult struct {
	// Faces is the union of downstream faces awaiting the content,
	// sorted ascending. The slice is reused by the next SatisfyByToken call.
	Faces []FaceID
	// Tokens runs parallel to Faces: Tokens[i] is the downstream PIT
	// token face i attached to its interest (zero when the face is an
	// application or sent no token). Reused like Faces.
	Tokens []uint64
	// FirstCreated is the earliest creation time among consumed
	// entries; now − FirstCreated is the router's observed fetch delay.
	FirstCreated time.Duration
	// PrivacyRequested is true when the earliest-created consumed entry
	// was created by a privacy-bit interest.
	PrivacyRequested bool
	// Trace and Span are the earliest-created consumed entry's span
	// context; zero when that interest was untraced.
	Trace uint64
	Span  uint64
}

// SatisfyByToken consumes every pending entry that the given content
// satisfies and returns the union of their downstream faces with the
// timing/privacy metadata the forwarder needs for caching decisions.
// Matching follows the NDN rule: a pending interest for X is satisfied
// by content named X' iff X is a prefix of X' (honoring the
// unpredictable-suffix restriction via ndn.Data.Matches). Expired
// entries never match.
//
// tok is a direct-access hint: when nonzero it is the PIT token this
// Data carried back (stamped on the interest by InsertProbed). A valid
// token substitutes for the hash probe at its entry's prefix length;
// the k-ascending sweep and its event order are unchanged, so a token
// is purely an optimization — stale, foreign or zero tokens fall back
// to the plain sweep.
//
// Prefix candidates are probed by rolling hash (see
// ndn.MixComponentHash) and gated by the table's per-length facet
// counts, so the match path neither materializes prefix names nor
// probes lengths with nothing pending. The result's face and token
// slices are reused buffers: sorted by face, deduplicated, valid until
// the next SatisfyByToken call — steady-state satisfaction allocates nothing.
func (p *PIT) SatisfyByToken(data *ndn.Data, tok uint64, now time.Duration) (SatisfyResult, bool) {
	var tokEntry *pcct.Entry
	if tok != 0 {
		if e := p.t.ByToken(tok); e != nil && e.PITActive() && e.Name().IsPrefixOf(data.Name) {
			tokEntry = e
		}
	}
	p.facesBuf = p.facesBuf[:0]
	p.tokensBuf = p.tokensBuf[:0]
	var res SatisfyResult
	matched := false
	// Candidate entries are exactly the prefixes of the data name. The
	// rolling hash probes every prefix length without materializing a
	// prefix name: folding component k takes the k-prefix hash to the
	// (k+1)-prefix hash, matching what Insert cached via Name.Hash.
	h := ndn.NameHashSeed()
	comps := data.Name.Components()
	for k := 0; ; k++ {
		var hit *pcct.Entry
		switch {
		case tokEntry != nil && tokEntry.Name().Len() == k:
			hit = tokEntry
		case p.t.PITLenAt(k) > 0:
			// Names are unique, so at most one entry is the exact
			// k-prefix of the data name.
			if e := p.t.GetPrefix(h, k, data.Name); e != nil && e.PITActive() {
				hit = e
			}
		}
		if hit != nil {
			pf := hit.PIT()
			switch {
			case now >= pf.Expires:
				p.expireEntry(hit, now)
			case !data.MatchesName(hit.Name()):
				// Unpredictable-suffix restriction: a shorter pending
				// prefix must not consume /…/<rand> content.
			default:
				if !matched || pf.Created < res.FirstCreated {
					res.FirstCreated = pf.Created
					res.PrivacyRequested = pf.Privacy
					res.Trace = pf.Trace
					res.Span = pf.Span
				}
				matched = true
				for _, fr := range pf.Faces {
					p.addFace(FaceID(fr.Face), fr.Token)
				}
				p.t.DetachPIT(hit)
				p.t.ReleaseIfEmpty(hit)
			}
		}
		if !comps.Next() {
			break
		}
		h = ndn.MixComponentHash(h, comps.Component())
	}
	if !matched {
		return SatisfyResult{}, false
	}
	// Sort by face so downstream sends happen in a seed-stable order;
	// tokens travel with their faces. Insertion sort: face lists are a
	// handful of elements and the buffers must not allocate.
	for i := 1; i < len(p.facesBuf); i++ {
		f, t := p.facesBuf[i], p.tokensBuf[i]
		j := i - 1
		for j >= 0 && p.facesBuf[j] > f {
			p.facesBuf[j+1], p.tokensBuf[j+1] = p.facesBuf[j], p.tokensBuf[j]
			j--
		}
		p.facesBuf[j+1], p.tokensBuf[j+1] = f, t
	}
	res.Faces = p.facesBuf
	res.Tokens = p.tokensBuf
	return res, true
}

// addFace records one downstream face in the reused result buffers,
// deduplicating across consumed entries. The first nonzero token for a
// face wins (any of the downstream node's live tokens serves as a
// satisfaction hint there).
func (p *PIT) addFace(f FaceID, tok uint64) {
	for i := range p.facesBuf {
		if p.facesBuf[i] == f {
			if p.tokensBuf[i] == 0 {
				p.tokensBuf[i] = tok
			}
			return
		}
	}
	if len(p.facesBuf) == cap(p.facesBuf) {
		p.growFaceBufs()
	}
	n := len(p.facesBuf)
	p.facesBuf = p.facesBuf[:n+1]
	p.tokensBuf = p.tokensBuf[:n+1]
	p.facesBuf[n] = f
	p.tokensBuf[n] = tok
}

// growFaceBufs extends the result buffers off the hot path; after the
// first few Data arrivals the capacity covers the node's degree and
// steady state never returns here.
func (p *PIT) growFaceBufs() {
	nc := 2 * cap(p.facesBuf)
	if nc == 0 {
		nc = 8
	}
	faces := make([]FaceID, len(p.facesBuf), nc)
	copy(faces, p.facesBuf)
	p.facesBuf = faces
	tokens := make([]uint64, len(p.tokensBuf), nc)
	copy(tokens, p.tokensBuf)
	p.tokensBuf = tokens
}

// HasPending reports whether an unexpired entry exists for exactly name:
// the pending probe a storeless node takes over a name borrowed straight
// off the wire buffer, keeping nothing of it.
func (p *PIT) HasPending(name ndn.Name, now time.Duration) bool {
	e := p.t.Get(name)
	return e != nil && e.PITActive() && now < e.PIT().Expires
}

// Expire removes every entry whose lifetime has passed and returns the
// number removed. Lapsed entries are collected and sorted by URI before
// removal so the pit_expire trace events come out in a seed-stable
// order. The sort renders each lapsed name, off the packet path.
func (p *PIT) Expire(now time.Duration) int {
	p.expireBuf = p.expireBuf[:0]
	p.t.ForEachPIT(func(e *pcct.Entry) {
		if now >= e.PIT().Expires {
			p.expireBuf = append(p.expireBuf, e)
		}
	})
	sort.Slice(p.expireBuf, func(i, j int) bool {
		return p.expireBuf[i].Name().String() < p.expireBuf[j].Name().String()
	})
	removed := len(p.expireBuf)
	for i, e := range p.expireBuf {
		p.expireEntry(e, now)
		p.expireBuf[i] = nil
	}
	return removed
}
