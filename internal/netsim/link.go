package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ndnprivacy/internal/telemetry"
)

// Handler consumes a delivered packet. Packets are opaque to the
// simulator; the forwarding layer defines their types.
type Handler func(pkt any)

// spanCarrier is the capability a packet implements to ride in span
// traces. Declared locally so netsim stays ignorant of the forwarding
// layer's packet types (ndn.Interest and ndn.Data both implement it).
type spanCarrier interface {
	SpanContext() (trace, span uint64)
}

// LinkConfig describes a bidirectional point-to-point link.
type LinkConfig struct {
	// Latency models one-way propagation delay (both directions).
	Latency LatencyModel
	// Bandwidth in bytes per second; 0 means infinite (no serialization
	// delay).
	Bandwidth int64
	// LossProb is the independent per-packet drop probability in [0, 1).
	// Ignored when Loss is set.
	LossProb float64
	// Loss, when non-nil, replaces the memoryless LossProb with a
	// stateful loss model (e.g. GilbertElliott for bursty loss).
	Loss LossModel
}

// LossModel decides per-packet drops; implementations may keep state
// (loss on real links is bursty, not memoryless).
type LossModel interface {
	// Drop reports whether the next packet is lost.
	Drop(rng *rand.Rand) bool
}

// GilbertElliott is the classic two-state bursty loss model: the link
// alternates between a Good state (loss rate LossGood) and a Bad state
// (loss rate LossBad), transitioning with probabilities PGoodToBad and
// PBadToGood per packet. Mean loss is well above LossGood during bursts,
// which is exactly the pattern that makes NDN's cache-assisted
// retransmission (Section V-A) valuable.
type GilbertElliott struct {
	PGoodToBad float64
	PBadToGood float64
	LossGood   float64
	LossBad    float64

	bad bool
}

var _ LossModel = (*GilbertElliott)(nil)

// NewGilbertElliott validates and builds the model.
func NewGilbertElliott(pGB, pBG, lossGood, lossBad float64) (*GilbertElliott, error) {
	for _, p := range []float64{pGB, pBG, lossGood, lossBad} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("netsim: gilbert-elliott probability %g outside [0, 1]", p)
		}
	}
	return &GilbertElliott{PGoodToBad: pGB, PBadToGood: pBG, LossGood: lossGood, LossBad: lossBad}, nil
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(rng *rand.Rand) bool {
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	loss := g.LossGood
	if g.bad {
		loss = g.LossBad
	}
	return rng.Float64() < loss
}

// MeanLoss returns the stationary loss rate of the chain.
func (g *GilbertElliott) MeanLoss() float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		if g.bad {
			return g.LossBad
		}
		return g.LossGood
	}
	pBad := g.PGoodToBad / denom
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}

// Link is a bidirectional point-to-point link with two Ports. Packets
// sent into one port are delivered to the other port's handler after
// propagation + serialization delay, unless lost.
type Link struct {
	sim   *Simulator
	cfg   LinkConfig
	ports [2]Port
	fault func(pkt any) bool

	delivered uint64
	dropped   uint64

	// tap is built at construction from the simulator's telemetry; nil
	// when none is attached. A link has no node name, so its counters
	// are unlabeled and its events carry no node.
	tap *telemetry.Tap
}

// Port is one end of a link.
type Port struct {
	link    *Link
	side    int
	handler Handler
	// arrive is the port's delivery handler, bound once at NewLink so
	// Send schedules it with the packet as argument instead of
	// allocating a closure per packet.
	arrive func(pkt any)
}

// NewLink creates a link inside the simulator. The caller attaches
// handlers to both ports before traffic flows.
func NewLink(sim *Simulator, cfg LinkConfig) (*Link, error) {
	if sim == nil {
		return nil, errors.New("netsim: link requires a simulator")
	}
	if cfg.Latency == nil {
		return nil, errors.New("netsim: link requires a latency model")
	}
	if err := Validate(cfg.Latency); err != nil {
		return nil, err
	}
	if cfg.Bandwidth < 0 {
		return nil, fmt.Errorf("netsim: negative bandwidth %d", cfg.Bandwidth)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("netsim: loss probability %g outside [0, 1)", cfg.LossProb)
	}
	l := &Link{sim: sim, cfg: cfg, tap: telemetry.NewTap(sim, "")}
	l.tap.Register(telemetry.StageLinkTx, telemetry.StageLinkDrop)
	for side := range l.ports {
		p := &l.ports[side]
		p.link, p.side, p.arrive = l, side, p.deliver
	}
	return l, nil
}

// Port returns the link's port on the given side (0 or 1).
func (l *Link) Port(side int) *Port { return &l.ports[side] }

// Delivered returns the number of packets delivered so far.
func (l *Link) Delivered() uint64 { return l.delivered }

// Dropped returns the number of packets lost so far.
func (l *Link) Dropped() uint64 { return l.dropped }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetFaultInjector installs a deterministic packet-drop predicate,
// consulted before the random loss model. Tests and failure-injection
// experiments use it to lose specific packets on purpose; pass nil to
// clear.
func (l *Link) SetFaultInjector(drop func(pkt any) bool) { l.fault = drop }

// SetHandler installs the packet consumer for this port.
func (p *Port) SetHandler(h Handler) { p.handler = h }

// Peer returns the opposite port.
func (p *Port) Peer() *Port { return &p.link.ports[1-p.side] }

// Send transmits pkt of the given wire size out of this port. Delivery
// to the peer's handler is scheduled after propagation plus
// serialization delay; the packet may be silently lost per LossProb.
func (p *Port) Send(pkt any, size int) {
	l := p.link
	if l.fault != nil && l.fault(pkt) {
		l.drop("fault", size)
		return
	}
	switch {
	case l.cfg.Loss != nil:
		if l.cfg.Loss.Drop(l.sim.Rand()) {
			l.drop("loss", size)
			return
		}
	case l.cfg.LossProb > 0:
		if l.sim.Rand().Float64() < l.cfg.LossProb {
			l.drop("loss", size)
			return
		}
	}
	delay := l.cfg.Latency.Sample(l.sim.Rand())
	if l.cfg.Bandwidth > 0 && size > 0 {
		delay += time.Duration(int64(size) * int64(time.Second) / l.cfg.Bandwidth)
	}
	if l.tap != nil {
		now := int64(l.sim.Now())
		tx := telemetry.Rec{Stage: telemetry.StageLinkTx, T0: now, T1: now + int64(delay), Value: uint64(size)}
		if l.tap.Tracer() != nil {
			if c, ok := pkt.(spanCarrier); ok {
				tx.Parent.Trace, tx.Parent.Span = c.SpanContext()
			}
		}
		l.tap.Record(&tx)
	}
	l.sim.ScheduleCall(delay, EventLink, p.Peer().arrive, pkt)
}

// deliver hands an arriving packet to the port's handler; it runs as
// the link-delivery event.
func (p *Port) deliver(pkt any) {
	p.link.delivered++
	if p.handler != nil {
		p.handler(pkt)
	}
}

// drop accounts one lost packet.
func (l *Link) drop(reason string, size int) {
	l.dropped++
	now := int64(l.sim.Now())
	drop := telemetry.Rec{Stage: telemetry.StageLinkDrop, Action: reason, T0: now, T1: now, Value: uint64(size)}
	l.tap.Record(&drop)
}
