package ndn

import (
	"errors"
	"fmt"
	"time"
)

// Default protocol parameters. Lifetimes follow the CCNx node model the
// paper references: pending interests expire after a few seconds, and
// cached content carries an optional freshness period.
const (
	// DefaultInterestLifetime bounds how long a PIT entry may stay
	// pending before it is flushed.
	DefaultInterestLifetime = 4 * time.Second
	// ScopeUnlimited lets an interest propagate without a hop bound.
	ScopeUnlimited = 0
	// ScopeLocal restricts an interest to the issuing host (scope 1).
	ScopeLocal = 1
	// ScopeNextHop allows an interest to traverse at most two NDN
	// entities, source included (scope 2) — the value the Section III
	// adversary abuses to probe the first-hop router's cache.
	ScopeNextHop = 2
)

// ErrNoPayload is returned when constructing a Data packet with no content.
var ErrNoPayload = errors.New("ndn: data packet requires a payload")

// Privacy captures the consumer- and producer-driven privacy marking of
// Section V. Producer marking travels with the Data packet (privacy bit or
// the reserved /private/ name component); consumer marking travels with
// the Interest.
type Privacy uint8

// Privacy marking values. Enums start at one so the zero value is the
// explicit "unmarked" state.
const (
	// PrivacyUnmarked means no privacy preference was expressed.
	PrivacyUnmarked Privacy = iota
	// PrivacyRequested means the packet carries the privacy bit.
	PrivacyRequested
	// PrivacyDeclined means the sender explicitly requested no privacy
	// handling (the "first non-private interest" trigger relies on
	// distinguishing declined from unmarked).
	PrivacyDeclined
)

// String implements fmt.Stringer.
func (p Privacy) String() string {
	switch p {
	case PrivacyUnmarked:
		return "unmarked"
	case PrivacyRequested:
		return "requested"
	case PrivacyDeclined:
		return "declined"
	default:
		return fmt.Sprintf("privacy(%d)", uint8(p))
	}
}

// Interest is an NDN interest packet. Interests carry no source address:
// delivery state lives in routers' PITs.
type Interest struct {
	// Name is the requested content name (or a prefix of it).
	Name Name
	// Nonce deduplicates looped interests.
	Nonce uint64
	// Scope bounds how many NDN entities the interest may traverse,
	// source included. 0 means unlimited.
	Scope uint8
	// Lifetime bounds the pending time at each router.
	Lifetime time.Duration
	// Privacy is the consumer-driven privacy bit from Section V.
	Privacy Privacy
	// TraceID and SpanID are simulation-local span-propagation context
	// (see internal/telemetry/span): the trace this interest belongs to
	// and the span acting as parent for stages it causes. Zero means
	// untraced. Never wire-encoded — a real network would carry these
	// out of band, and the privacy adversary must not see them.
	TraceID uint64
	SpanID  uint64
	// PITToken is the sender's composite-table entry token (see
	// internal/pcct): a forwarder stamps its own PIT entry's token onto
	// the upstream copy so the Data answer can come back with a direct
	// table handle instead of a name re-probe. Zero means no token.
	// Simulation-local like TraceID — real NDN forwarders exchange the
	// equivalent hop-by-hop (NDNLPv2 PIT tokens), never in the interest.
	PITToken uint64
}

// SpanContext returns the packet's span-propagation context.
func (i *Interest) SpanContext() (trace, span uint64) { return i.TraceID, i.SpanID }

// NewInterest builds an interest for name with the default lifetime and a
// caller-supplied nonce.
func NewInterest(name Name, nonce uint64) *Interest {
	return &Interest{
		Name:     name,
		Nonce:    nonce,
		Scope:    ScopeUnlimited,
		Lifetime: DefaultInterestLifetime,
	}
}

// WithScope returns a copy of the interest with the given scope.
func (i *Interest) WithScope(scope uint8) *Interest {
	cp := *i
	cp.Scope = scope
	return &cp
}

// WithPrivacy returns a copy of the interest with the given privacy mark.
func (i *Interest) WithPrivacy(p Privacy) *Interest {
	cp := *i
	cp.Privacy = p
	return &cp
}

// String implements fmt.Stringer.
func (i *Interest) String() string {
	return fmt.Sprintf("Interest(%s nonce=%x scope=%d privacy=%s)", i.Name, i.Nonce, i.Scope, i.Privacy)
}

// Data is an NDN content object. All content objects are signed by their
// producer (Section II); verification uses the producer's key via the
// Signer in sign.go.
//
// A packet is immutable once handed on: after a Data has been given to
// a forwarder (Producer.Publish, Forwarder.SendData, a face) or a
// Content Store (cache.Store.Insert), nobody writes to it again — not
// its header fields, not through its Payload or Signature. The
// forwarding plane relies on it: each hop stamps the simulation-local
// header fields (TraceID, SpanID, PITToken) on a struct copy that
// shares those two slices with the packet it received, and each Content
// Store keeps the very packet it was handed, so one fetched Data may be
// cached by every store on its path and by parallel trace replays at
// once. The boundaries to application-owned packets and buffers copy
// deeply instead: NewData, Clone, and Producer.Publish.
type Data struct {
	// Name is the full content name.
	Name Name
	// Payload is the content bytes.
	Payload []byte
	// Producer identifies the signing producer (key locator).
	Producer string
	// Signature authenticates name, payload and producer.
	Signature []byte
	// Freshness bounds how long routers should treat a cached copy as
	// fresh; zero means no bound.
	Freshness time.Duration
	// Private is the producer-driven privacy bit from Section V.
	Private bool
	// ContentID is the correlation identifier the paper proposes at the
	// end of Section VI: producers populate it with identical values
	// for semantically related content (even content whose names share
	// no prefix), and routers use it to group Random-Cache state.
	// Empty means unset.
	ContentID string
	// TraceID and SpanID are simulation-local span-propagation context,
	// mirroring Interest's: the trace of the fetch this Data answers and
	// the span responsible for the current leg. Zero means untraced;
	// never wire-encoded.
	TraceID uint64
	SpanID  uint64
	// PITToken echoes the PITToken of the interest this Data answers,
	// giving the receiving forwarder a direct composite-table handle for
	// PIT satisfaction (see internal/pcct). Zero means no token.
	// Simulation-local, never wire-encoded, like TraceID.
	PITToken uint64
}

// SpanContext returns the packet's span-propagation context.
func (d *Data) SpanContext() (trace, span uint64) { return d.TraceID, d.SpanID }

// NewData builds an unsigned Data packet; use Signer.Sign to sign it.
// The payload is copied.
func NewData(name Name, payload []byte) (*Data, error) {
	if len(payload) == 0 {
		return nil, ErrNoPayload
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return &Data{Name: name, Payload: cp}, nil
}

// IsPrivate reports whether the producer marked this content private,
// either through the privacy bit or the reserved name component.
func (d *Data) IsPrivate() bool {
	return d.Private || d.Name.HasPrivateMarker()
}

// Matches reports whether this content satisfies the given interest under
// NDN's longest-prefix matching rule, including the Section V-A footnote:
// content whose final component is an unpredictable (rand) component is
// only returned to interests that name it explicitly.
func (d *Data) Matches(interest *Interest) bool {
	return d.MatchesName(interest.Name)
}

// MatchesName is Matches for a bare interest name, so lookup paths that
// track only the pending name (the PIT) can test satisfaction without
// materializing a synthetic Interest.
func (d *Data) MatchesName(name Name) bool {
	if !name.IsPrefixOf(d.Name) {
		return false
	}
	// Footnote 5: /alice/skype/0/<rand> must not satisfy /alice/skype/.
	if name.Len() < d.Name.Len() && hasUnpredictableSuffix(d.Name) {
		return false
	}
	return true
}

// String implements fmt.Stringer.
func (d *Data) String() string {
	return fmt.Sprintf("Data(%s %dB producer=%s private=%t)", d.Name, len(d.Payload), d.Producer, d.IsPrivate())
}

// Clone returns a deep copy of the Data packet, for bytes that must not
// alias a buffer its owner may still write — an application's, when
// Producer.Publish takes content in, or a socket's, when a face hands a
// Data it decoded borrowed to the forwarder. The name's bytes, Payload
// and Signature are copied into one buffer, so a clone is two
// allocations. Forwarding hops copy only the struct and Content Stores
// copy nothing (see Data).
func (d *Data) Clone() *Data {
	cp := *d
	name, payload := len(d.Name.value), len(d.Payload)
	buf := make([]byte, name+payload+len(d.Signature))
	copy(buf, d.Name.value)
	copy(buf[name:], d.Payload)
	copy(buf[name+payload:], d.Signature)
	if d.Name.n > 0 {
		cp.Name.value = buf[:name:name]
	}
	cp.Payload = buf[name : name+payload : name+payload]
	cp.Signature = buf[name+payload:]
	return &cp
}
