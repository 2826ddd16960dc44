package attack

import (
	"errors"
	"fmt"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/stats"
)

// TieredResult holds the three ground-truth-labeled RTT sample sets and
// the adversary's two-threshold classification power.
type TieredResult struct {
	Label string
	// RAMHit, DiskHit and Miss are RTT samples in milliseconds, labeled
	// by engineered cache placement: RAMHit probes hit the RAM front,
	// DiskHit probes found content demoted to the disk tier, Miss
	// probes found nothing cached.
	RAMHit, DiskHit, Miss []float64
	// Accuracy is the best two-cut classifier accuracy over the three
	// classes (1/3 = chance, 1 = perfectly separable); T1 and T2 are
	// the RTT cuts (ms) achieving it: RTT ≤ T1 ⇒ RAM hit, RTT ≤ T2 ⇒
	// disk hit, else miss.
	Accuracy float64
	T1, T2   float64
	// Simulator cost accounting, as in Result.
	Steps               uint64
	VirtualSeconds      float64
	EventsPerVirtualSec float64
}

func (r *TieredResult) finalize() error {
	ram, err := stats.NewEmpirical(r.RAMHit)
	if err != nil {
		return fmt.Errorf("attack: %s: no RAM-hit samples: %w", r.Label, err)
	}
	disk, err := stats.NewEmpirical(r.DiskHit)
	if err != nil {
		return fmt.Errorf("attack: %s: no disk-hit samples: %w", r.Label, err)
	}
	miss, err := stats.NewEmpirical(r.Miss)
	if err != nil {
		return fmt.Errorf("attack: %s: no miss samples: %w", r.Label, err)
	}
	r.Accuracy, r.T1, r.T2 = stats.ThreeWayThresholdAccuracy(ram, disk, miss)
	if r.VirtualSeconds > 0 {
		r.EventsPerVirtualSec = float64(r.Steps) / r.VirtualSeconds
	}
	return nil
}

// tieredRunSample is one repetition's three-class measurements; the
// embedded sample's hit RTTs are the RAM hits.
type tieredRunSample struct {
	runSample
	disk []float64
}

// RunTiered measures the three-way timing channel on the Figure 3(a)
// topology with a tiered router: U and Adv share first-hop router R (a
// RAM front of Objects/3 entries over the default deterministic disk
// model, whose 2ms reads land the disk-hit RTT between the RAM-hit and
// miss classes); P sits across a backbone link.
//
// Objects split into three equal groups whose cache placement is
// engineered by the priming order: the user fetches the first group,
// filling the RAM front, then the second, whose fetches demote the
// first group to disk; the third group is never fetched. Probe order
// is the RAM (second) group, then the disk (first) group, then the
// miss (third) group, so the disk probes' promotions only displace
// already-measured objects.
func RunTiered(cfg ScenarioConfig) (*TieredResult, error) {
	cfg.setDefaults()
	third := cfg.Objects / 3
	if third == 0 {
		return nil, errors.New("attack: tiered scenario needs at least 3 objects")
	}
	tieredStore := func() (*cache.Store, error) {
		return cache.NewTieredStore(third, cache.NewLRU(), tiered.NewDiskModel(tiered.DiskModelConfig{}))
	}
	build := consumerNetwork(tieredStore, 0, lanEdge(), 1, lanBackbone())

	res := &TieredResult{Label: "tiered"}
	samples, err := runBatch(res.Label, cfg, func(sim *netsim.Simulator) (tieredRunSample, error) {
		var sample tieredRunSample
		p, err := setUp(sim, cfg, build)
		if err != nil {
			return sample, err
		}
		// Prime the disk group first: it fills the RAM front, then the
		// RAM group's fetches demote it object by object. After both
		// passes, group [0, third) sits on disk and [third, 2·third) in
		// RAM.
		if err := p.prime(0, 2*third); err != nil {
			return sample, err
		}
		// Probe RAM residents first (no tier movement), then the disk
		// group (each probe promotes, displacing only already-probed
		// objects), then the never-fetched group.
		if sample.hit, err = p.probe("ram", third, 2*third); err != nil {
			return sample, err
		}
		if sample.disk, err = p.probe("disk", 0, third); err != nil {
			return sample, err
		}
		if sample.miss, err = p.probe("miss", 2*third, 3*third); err != nil {
			return sample, err
		}
		sample.accountSim(sim)
		return sample, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		res.RAMHit = append(res.RAMHit, s.hit...)
		res.DiskHit = append(res.DiskHit, s.disk...)
		res.Miss = append(res.Miss, s.miss...)
		res.Steps += s.steps
		res.VirtualSeconds += s.virtualSeconds
	}
	if err := res.finalize(); err != nil {
		return nil, err
	}
	return res, nil
}
