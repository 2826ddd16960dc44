package attack

import (
	"errors"
	"fmt"
	"time"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
)

// The Section III procedure, written once for every topology: publish
// the objects, probe some cold, let the user fetch others, probe those,
// then classify. A scenario contributes only its network.

// network is one scenario's topology as the procedure sees it: the host
// the honest user fetches from, the adversary's host, and the producer's
// host with its per-interest response delay.
type network struct {
	user, adv, producer *fwd.Forwarder
	responseDelay       time.Duration
}

// builder wires one run's network on sim; manager is the shared router's
// cache manager (nil for the undefended baseline).
type builder func(sim *netsim.Simulator, manager core.CacheManager) (network, error)

// parties are one run's user and adversary and the published objects'
// names, indexed by object number.
type parties struct {
	user, adv *Prober
	names     []ndn.Name
}

// setUp builds one run: the cache manager, the network, the cfg.Objects
// published objects, then the user and the adversary.
func setUp(sim *netsim.Simulator, cfg ScenarioConfig, build builder) (parties, error) {
	sim.SetPhase("build")
	var manager core.CacheManager
	if cfg.Manager != nil {
		manager = cfg.Manager(sim)
	}
	net, err := build(sim, manager)
	if err != nil {
		return parties{}, err
	}
	producer, err := fwd.NewProducer(net.producer, ndn.MustParseName("/p"), nil)
	if err != nil {
		return parties{}, err
	}
	producer.ResponseDelay = net.responseDelay
	names := make([]ndn.Name, cfg.Objects)
	for i := range names {
		names[i] = objectName(i)
		d, err := ndn.NewData(names[i], []byte(fmt.Sprintf("object %d payload", i)))
		if err != nil {
			return parties{}, err
		}
		d.Private = cfg.MarkPrivate
		if err := producer.Publish(d); err != nil {
			return parties{}, err
		}
	}
	user, err := NewProber(net.user)
	if err != nil {
		return parties{}, err
	}
	adv, err := NewProber(net.adv)
	if err != nil {
		return parties{}, err
	}
	return parties{user: user, adv: adv, names: names}, nil
}

// prime has the user fetch objects [lo, hi), each to completion. A fetch
// that times out fails the run: its object never reached the cache, so
// probing it would mislabel a miss as a hit.
func (p parties) prime(lo, hi int) error {
	p.user.sim.SetPhase("prime")
	for i := lo; i < hi; i++ {
		if _, err := p.user.fetch(p.names[i]); err != nil {
			return fmt.Errorf("prime %d: %w", i, err)
		}
	}
	return nil
}

// probe has the adversary probe objects [lo, hi) once each and returns
// the RTTs in milliseconds; class names the phase and the error.
func (p parties) probe(class string, lo, hi int) ([]float64, error) {
	p.adv.sim.SetPhase("probe-" + class)
	var rtts []float64
	for i := lo; i < hi; i++ {
		rtt, err := p.adv.Probe(p.names[i])
		if err != nil {
			return nil, fmt.Errorf("%s probe %d: %w", class, i, err)
		}
		rtts = append(rtts, ms(rtt))
	}
	return rtts, nil
}

// probeHalves probes the first half of the objects cold, primes the
// second half through the user, and probes it again.
func (p parties) probeHalves() (hit, miss []float64, err error) {
	half := len(p.names) / 2
	if miss, err = p.probe("miss", 0, half); err != nil {
		return nil, nil, err
	}
	if err = p.prime(half, len(p.names)); err != nil {
		return nil, nil, err
	}
	if hit, err = p.probe("hit", half, len(p.names)); err != nil {
		return nil, nil, err
	}
	return hit, miss, nil
}

// ProbeHalves runs the Section III procedure on an existing topology:
// adv probes the first half of names cold, user fetches the second half,
// and adv probes that half again. The Result is labelled with adv's host
// and carries no simulator accounting.
func ProbeHalves(adv, user *Prober, names []ndn.Name) (*Result, error) {
	hit, miss, err := parties{user: user, adv: adv, names: names}.probeHalves()
	if err != nil {
		return nil, err
	}
	res := &Result{Label: adv.host, Hit: hit, Miss: miss}
	if err := res.finalize(); err != nil {
		return nil, err
	}
	return res, nil
}

// runMissPrimeHit runs the Figure 3 procedure on the network build
// wires, once per cfg.Runs, and folds the runs' samples in run order.
func runMissPrimeHit(label string, cfg ScenarioConfig, build builder) (*Result, error) {
	cfg.setDefaults()
	if cfg.Objects/2 == 0 {
		return nil, errors.New("attack: need at least 2 objects")
	}
	samples, err := runBatch(label, cfg, func(sim *netsim.Simulator) (runSample, error) {
		var sample runSample
		p, err := setUp(sim, cfg, build)
		if err != nil {
			return sample, err
		}
		if sample.hit, sample.miss, err = p.probeHalves(); err != nil {
			return sample, err
		}
		sample.accountSim(sim)
		return sample, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Label: label}
	for _, s := range samples {
		res.Hit = append(res.Hit, s.hit...)
		res.Miss = append(res.Miss, s.miss...)
		res.Steps += s.steps
		res.VirtualSeconds += s.virtualSeconds
	}
	if err := res.finalize(); err != nil {
		return nil, err
	}
	return res, nil
}
