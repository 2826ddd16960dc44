// Package session implements the Section V-A protection for interactive
// traffic as a usable protocol: a bidirectional session between two NDN
// endpoints whose per-packet content names carry HMAC-derived
// unpredictable components, so router caches still repair packet loss
// while cache-probing adversaries cannot enumerate the session's names.
//
// Each direction of the conversation is an independent named channel:
// the initiator consumes frames the responder produces under the
// responder's prefix, and vice versa. Both sides derive the same name
// for sequence number i from the shared secret, and nothing else on the
// network can.
package session

import (
	"errors"
	"fmt"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
)

// Config assembles one endpoint of an interactive session.
type Config struct {
	// Host is the forwarder this endpoint runs on.
	Host *fwd.Forwarder
	// LocalPrefix is the prefix this endpoint produces frames under; it
	// must be routable toward this host.
	LocalPrefix ndn.Name
	// RemotePrefix is the peer's producing prefix.
	RemotePrefix ndn.Name
	// Secret is the session secret both endpoints share.
	Secret []byte
	// FrameLifetime bounds each fetch; it defaults to 150ms — an
	// interactive budget.
	FrameLifetime time.Duration
	// Retries is how many times a lost frame is re-requested (loss
	// recovery from router caches); it defaults to 2.
	Retries int
}

// Endpoint is one side of an interactive session.
type Endpoint struct {
	cfg      Config
	secret   *ndn.SharedSecret
	producer *fwd.Producer
	consumer *fwd.Consumer

	sent     uint64
	received uint64
	repaired uint64
}

// FrameResult reports one received frame.
type FrameResult struct {
	// Seq is the frame's sequence number.
	Seq uint64
	// Payload is the frame content; nil when Lost.
	Payload []byte
	// RTT is the fetch round-trip of the final (successful) attempt.
	RTT time.Duration
	// Retries is how many re-requests were needed.
	Retries int
	// Lost is true when every attempt timed out.
	Lost bool
}

// NewEndpoint builds a session endpoint: a producer for the local
// prefix and a consumer for the remote one.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.Host == nil {
		return nil, errors.New("session: endpoint requires a host")
	}
	if cfg.LocalPrefix.IsEmpty() || cfg.RemotePrefix.IsEmpty() {
		return nil, errors.New("session: endpoint requires local and remote prefixes")
	}
	secret, err := ndn.NewSharedSecret(cfg.Secret)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if cfg.FrameLifetime <= 0 {
		cfg.FrameLifetime = 150 * time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	producer, err := fwd.NewProducer(cfg.Host, cfg.LocalPrefix, nil)
	if err != nil {
		return nil, err
	}
	consumer, err := fwd.NewConsumer(cfg.Host)
	if err != nil {
		return nil, err
	}
	return &Endpoint{
		cfg:      cfg,
		secret:   secret,
		producer: producer,
		consumer: consumer,
	}, nil
}

// LocalName derives the unpredictable name this endpoint publishes frame
// seq under.
func (e *Endpoint) LocalName(seq uint64) ndn.Name {
	return e.secret.UnpredictableName(e.cfg.LocalPrefix, seq)
}

// RemoteName derives the peer's name for frame seq.
func (e *Endpoint) RemoteName(seq uint64) ndn.Name {
	return e.secret.UnpredictableName(e.cfg.RemotePrefix, seq)
}

// Send publishes one outgoing frame under the unpredictable name for
// seq, making it fetchable by the peer.
func (e *Endpoint) Send(seq uint64, payload []byte) error {
	d, err := ndn.NewData(e.LocalName(seq), payload)
	if err != nil {
		return err
	}
	// Interactive frames are time-sensitive: bound cache freshness so
	// stale frames age out of router caches (Section V-A: long-term
	// caching of interactive content helps nobody).
	d.Freshness = 2 * time.Second
	if err := e.producer.Publish(d); err != nil {
		return err
	}
	e.sent++
	return nil
}

// Receive fetches the peer's frame seq, recovering lost packets from
// router caches via retransmission. handler runs when the fetch
// resolves; the caller drives the simulator.
func (e *Endpoint) Receive(seq uint64, handler func(FrameResult)) {
	interest := ndn.NewInterest(e.RemoteName(seq), 0)
	interest.Lifetime = e.cfg.FrameLifetime
	e.consumer.FetchReliable(interest, e.cfg.Retries, func(res fwd.FetchResult, used int) {
		out := FrameResult{Seq: seq, RTT: res.RTT, Retries: used, Lost: res.TimedOut}
		if !res.TimedOut {
			out.Payload = res.Data.Payload
			e.received++
			if used > 0 {
				e.repaired++
			}
		}
		handler(out)
	})
}

// Stats returns (sent, received, repaired) frame counts.
func (e *Endpoint) Stats() (sent, received, repaired uint64) {
	return e.sent, e.received, e.repaired
}

// Served returns how many interests this endpoint's producer answered.
func (e *Endpoint) Served() uint64 { return e.producer.Served() }

// Pair wires two endpoints of one conversation from a single secret.
// Convenience for tests and examples; both hosts must already be able
// to route each other's prefixes.
func Pair(hostA, hostB *fwd.Forwarder, prefixA, prefixB ndn.Name, secret []byte) (*Endpoint, *Endpoint, error) {
	a, err := NewEndpoint(Config{
		Host: hostA, LocalPrefix: prefixA, RemotePrefix: prefixB, Secret: secret,
	})
	if err != nil {
		return nil, nil, err
	}
	b, err := NewEndpoint(Config{
		Host: hostB, LocalPrefix: prefixB, RemotePrefix: prefixA, Secret: secret,
	})
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
