// Package attack implements the cache-privacy attacks of Section III and
// the machinery to run them: the timing prober (single probe, and the
// double probe that learns a reference object's definite cache-hit
// RTT), the multi-segment amplification of weak probes, the Figure 3
// procedure over each of its four topologies and over a tiered router,
// and the Section I two-party conversation-detection attack.
package attack

import (
	"errors"
	"time"

	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/telemetry"
)

// ErrProbeFailed is returned when a probe (or a priming fetch) times out
// or the simulator finishes without resolving it.
var ErrProbeFailed = errors.New("attack: probe did not complete")

// Prober drives an adversary consumer through probe sequences. All
// methods run the simulator synchronously until the probe resolves, so
// they must be called from outside event callbacks. Probers only work on
// hosts driven by a virtual-time netsim.Simulator.
type Prober struct {
	consumer *fwd.Consumer
	sim      *netsim.Simulator
	host     string
}

// NewProber attaches an adversarial consumer to the given host.
func NewProber(host *fwd.Forwarder) (*Prober, error) {
	sim, isSim := host.Sim().(*netsim.Simulator)
	if !isSim {
		return nil, errors.New("attack: prober requires a netsim-driven host")
	}
	consumer, err := fwd.NewConsumer(host)
	if err != nil {
		return nil, err
	}
	return &Prober{consumer: consumer, sim: sim, host: host.Name()}, nil
}

// Probe fetches name once and returns the observed RTT.
func (p *Prober) Probe(name ndn.Name) (time.Duration, error) {
	rtt, err := p.fetch(name)
	if err != nil {
		p.emitProbe(name, "timeout", 0)
		return 0, err
	}
	p.emitProbe(name, "ok", rtt)
	return rtt, nil
}

// fetch fetches name once, running the simulator until it resolves, and
// records nothing.
func (p *Prober) fetch(name ndn.Name) (time.Duration, error) {
	var res fwd.FetchResult
	resolved := false
	p.consumer.FetchName(name, func(r fwd.FetchResult) {
		res = r
		resolved = true
	})
	p.sim.Run()
	if !resolved || res.TimedOut {
		return 0, ErrProbeFailed
	}
	return res.RTT, nil
}

// emitProbe records one adversary measurement in the event trace: the
// probed name, whether it resolved, and the observed RTT (the timing
// side channel itself).
func (p *Prober) emitProbe(name ndn.Name, action string, rtt time.Duration) {
	sink := p.sim.TraceSink()
	if sink == nil {
		return
	}
	sink.Emit(telemetry.Event{
		At:      int64(p.sim.Now()),
		Type:    telemetry.EvProbe,
		Node:    p.host,
		Name:    name.String(),
		Action:  action,
		DelayNS: int64(rtt),
	})
}

// DoubleProbe implements the Section III reference measurement: request
// name twice in succession. The first response may come from anywhere;
// the second — in the no-countermeasure baseline — is certainly served
// from the first-hop router's cache. It returns both RTTs.
func (p *Prober) DoubleProbe(name ndn.Name) (first, second time.Duration, err error) {
	first, err = p.Probe(name)
	if err != nil {
		return 0, 0, err
	}
	second, err = p.Probe(name)
	if err != nil {
		return 0, 0, err
	}
	return first, second, nil
}

// SegmentSuccessProbability implements the Section III amplification: if
// a single-object probe succeeds with probability pSuccess and a content
// is split into n independent segments, the adversary succeeds overall
// unless every per-segment probe fails:
// Pr[SUCCESS] = 1 − (1 − pSuccess)^n.
func SegmentSuccessProbability(pSuccess float64, segments int) float64 {
	if segments <= 0 {
		return 0
	}
	pFail := 1 - pSuccess
	overall := 1.0
	for i := 0; i < segments; i++ {
		overall *= pFail
	}
	return 1 - overall
}
