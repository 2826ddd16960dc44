package attack

import (
	"errors"
	"fmt"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/cache/tiered"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/stats"
)

// TieredScenarioConfig parameterizes the tiered-cache timing attack: a
// LAN-shaped topology whose shared router runs a RAM+disk Content
// Store, turning the paper's binary hit/miss observable into a
// three-way RAM-hit / disk-hit / miss channel.
type TieredScenarioConfig struct {
	ScenarioConfig
	// RAMCapacity is the router's RAM-front size; defaults to one probe
	// group (Objects/3) so the priming pattern leaves exactly one group
	// RAM-resident and one demoted to disk.
	RAMCapacity int
	// DiskReadLatency, DiskWriteLatency and DiskBytesPerSecond
	// parameterize the deterministic disk model; zero values take the
	// model defaults (2ms reads, which lands the disk-hit RTT between
	// the RAM-hit and miss classes on the LAN topology).
	DiskReadLatency    time.Duration
	DiskWriteLatency   time.Duration
	DiskBytesPerSecond int64
	// DiskCapacity bounds the disk tier (0 = unlimited).
	DiskCapacity int
}

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
// topology with a tiered router: U and Adv share first-hop router R
// (RAM front over a deterministic disk model); P sits across a
// backbone link.
//
// Objects split into three equal groups whose cache placement is
// engineered by the priming order: the user fetches the first group,
// filling the RAM front, then the second, whose fetches demote the
// first group to disk; the third group is never fetched. Probe order
// is the RAM (second) group, then the disk (first) group, then the
// miss (third) group, so the disk probes' promotions only displace
// already-measured objects.
func RunTiered(cfg TieredScenarioConfig) (*TieredResult, error) {
	cfg.setDefaults()
	third := cfg.Objects / 3
	if third == 0 {
		return nil, errors.New("attack: tiered scenario needs at least 3 objects")
	}
	ramCap := cfg.RAMCapacity
	if ramCap == 0 {
		ramCap = third
	}

	res := &TieredResult{Label: "tiered"}
	samples, err := runBatch(res.Label, cfg.ScenarioConfig, func(sim *netsim.Simulator) (tieredRunSample, error) {
		var sample tieredRunSample
		sim.SetPhase("build")
		var manager core.CacheManager
		if cfg.Manager != nil {
			manager = cfg.Manager(sim)
		}
		store, err := cache.NewTieredStore(ramCap, cache.NewLRU(), tiered.NewDiskModel(tiered.DiskModelConfig{
			Capacity:       cfg.DiskCapacity,
			ReadLatency:    cfg.DiskReadLatency,
			WriteLatency:   cfg.DiskWriteLatency,
			BytesPerSecond: cfg.DiskBytesPerSecond,
		}))
		if err != nil {
			return sample, err
		}
		router, err := fwd.NewStoreRouter(sim, "R", store, manager)
		if err != nil {
			return sample, err
		}

		attach := func(hostName string) (*fwd.Forwarder, error) {
			host, err := fwd.NewBareHost(sim, hostName)
			if err != nil {
				return nil, err
			}
			if err := fwd.Chain(sim, []*fwd.Forwarder{host, router}, lanEdge(), "/p"); err != nil {
				return nil, err
			}
			return host, nil
		}
		uHost, err := attach("U")
		if err != nil {
			return sample, err
		}
		aHost, err := attach("A")
		if err != nil {
			return sample, err
		}
		pHost, err := fwd.NewBareHost(sim, "P")
		if err != nil {
			return sample, err
		}
		if err := fwd.Chain(sim, []*fwd.Forwarder{router, pHost}, lanBackbone(), "/p"); err != nil {
			return sample, err
		}

		producer, err := fwd.NewProducer(pHost, ndn.MustParseName("/p"), nil)
		if err != nil {
			return sample, err
		}
		for i := 0; i < cfg.Objects; i++ {
			d, err := ndn.NewData(objectName(i), []byte(fmt.Sprintf("object %d payload", i)))
			if err != nil {
				return sample, err
			}
			d.Private = cfg.MarkPrivate
			if err := producer.Publish(d); err != nil {
				return sample, err
			}
		}
		user, err := fwd.NewConsumer(uHost)
		if err != nil {
			return sample, err
		}
		adv, err := NewProber(aHost)
		if err != nil {
			return sample, err
		}

		// Prime the disk group first: it fills the RAM front, then the
		// RAM group's fetches demote it object by object. After both
		// passes, group [0, third) sits on disk and [third, 2·third) in
		// RAM — provided RAMCapacity matches the group size.
		sim.SetPhase("prime")
		for i := 0; i < 2*third; i++ {
			fetchSync(sim, user, objectName(i))
		}

		// Probe RAM residents first (no tier movement), then the disk
		// group (each probe promotes, displacing only already-probed
		// objects), then the never-fetched group.
		sim.SetPhase("probe-ram")
		for i := third; i < 2*third; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("ram probe %d: %w", i, err)
			}
			sample.hit = append(sample.hit, ms(rtt))
		}
		sim.SetPhase("probe-disk")
		for i := 0; i < third; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("disk probe %d: %w", i, err)
			}
			sample.disk = append(sample.disk, ms(rtt))
		}
		sim.SetPhase("probe-miss")
		for i := 2 * third; i < 3*third; i++ {
			rtt, err := adv.Probe(objectName(i))
			if err != nil {
				return sample, fmt.Errorf("miss probe %d: %w", i, err)
			}
			sample.miss = append(sample.miss, ms(rtt))
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
