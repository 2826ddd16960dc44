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
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
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

// tieredRunSample is one repetition's three-class measurements.
type tieredRunSample struct {
	ram, disk, miss []float64
	steps           uint64
	virtualSeconds  float64
}

// RunTiered measures the three-way timing channel on the Figure 3(a)
// topology with a tiered router: U and Adv share first-hop router R
// (RAM front over a deterministic disk model); P sits across a
// backbone link.
//
// Objects split into three equal groups whose cache placement is
// engineered by the priming order: group D is fetched first (filling
// the RAM front), then group M's... rather, group R's fetches demote
// group D to disk; the final group stays unfetched. Probe order is
// RAM group, then disk group, then miss group, so the disk probes'
// promotions only displace already-measured objects.
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
	samples, err := runTieredBatch(res.Label, cfg.ScenarioConfig, func(sim *netsim.Simulator) (tieredRunSample, error) {
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
			sample.ram = append(sample.ram, ms(rtt))
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
		sample.steps = sim.Steps()
		sample.virtualSeconds = sim.Now().Seconds()
		return sample, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		res.RAMHit = append(res.RAMHit, s.ram...)
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

// runTieredBatch is runScenarioBatch for three-class samples: one sweep
// cell per run with a derived seed and private telemetry, merged in run
// order so results and traces are byte-identical at any parallelism.
func runTieredBatch(label string, cfg ScenarioConfig, runOne func(sim *netsim.Simulator) (tieredRunSample, error)) ([]tieredRunSample, error) {
	cells := make([]sweep.Cell[tieredRunSample], cfg.Runs)
	for run := 0; run < cfg.Runs; run++ {
		run := run
		cells[run] = sweep.Cell[tieredRunSample]{
			Labels: []string{"scenario=" + label, fmt.Sprintf("run=%d", run)},
			Run: func(seed int64, prov telemetry.Provider) (tieredRunSample, error) {
				sim := netsim.New(seed)
				sim.SetTelemetry(prov.Metrics(), prov.TraceSink())
				sim.SetSpans(prov.Spans())
				telemetry.Emit(prov.TraceSink(), telemetry.Event{
					At:   int64(sim.Now()),
					Type: telemetry.EvRunStart,
					Run:  run,
				})
				cfg.observeRun(run, sim)
				return runOne(sim)
			},
		}
	}
	parallel := cfg.Parallel
	if parallel == 0 {
		parallel = 1
	}
	samples, err := sweep.Run(cells, sweep.Options{
		RootSeed: cfg.Seed,
		Parallel: parallel,
		Metrics:  cfg.Metrics,
		Trace:    cfg.Trace,
		Spans:    cfg.Spans,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: %s: %w", label, err)
	}
	return samples, nil
}

// TierTruth labels the three-way classes.
type TierTruth uint8

const (
	TruthMiss TierTruth = iota
	TruthRAMHit
	TruthDiskHit
)

// String names the class for diagnostics and confusion rendering.
func (t TierTruth) String() string {
	switch t {
	case TruthRAMHit:
		return "ram"
	case TruthDiskHit:
		return "disk"
	default:
		return "miss"
	}
}

// TierGroundTruth scores the two-threshold three-way classifier against
// causal span ground truth, the tiered analogue of LatencyGroundTruth.
// Truth per probe comes from the trace's decomposition: a serve with a
// disk-read child span is a disk hit, a serve without one a RAM hit,
// anything else a miss. Prediction: RTT ≤ t1 ⇒ RAM hit, RTT ≤ t2 ⇒
// disk hit, else miss (normally TieredResult.T1/T2).
type TierGroundTruthResult struct {
	// Probes counts classified fetches (timeouts excluded).
	Probes int
	// Confusion[truth][predicted] counts probes, indexed by TierTruth.
	Confusion [3][3]int
	// Agreements and Accuracy score the diagonal.
	Agreements int
	Accuracy   float64
	// Mismatches lists disagreements for diagnosis.
	Mismatches []TierMismatch
}

// TierMismatch is one probe the two-cut classifier got wrong.
type TierMismatch struct {
	Trace            uint64
	Name             string
	TotalMS          float64
	Truth, Predicted TierTruth
}

// TierGroundTruth replays the (t1, t2) classifier over span-derived
// decompositions from proberNode and scores it three-way.
func TierGroundTruth(records []span.Record, proberNode string, t1, t2 float64) TierGroundTruthResult {
	var gt TierGroundTruthResult
	for _, d := range span.Analyze(records) {
		if d.Node != proberNode || d.TimedOut {
			continue
		}
		gt.Probes++
		truth := TruthMiss
		switch {
		case d.CacheServed && d.DiskServed:
			truth = TruthDiskHit
		case d.CacheServed:
			truth = TruthRAMHit
		}
		totalMS := float64(d.TotalNS) / float64(time.Millisecond)
		predicted := TruthMiss
		switch {
		case totalMS <= t1:
			predicted = TruthRAMHit
		case totalMS <= t2:
			predicted = TruthDiskHit
		}
		gt.Confusion[truth][predicted]++
		if predicted == truth {
			gt.Agreements++
			continue
		}
		gt.Mismatches = append(gt.Mismatches, TierMismatch{
			Trace:     d.Trace,
			Name:      d.Name,
			TotalMS:   totalMS,
			Truth:     truth,
			Predicted: predicted,
		})
	}
	if gt.Probes > 0 {
		gt.Accuracy = float64(gt.Agreements) / float64(gt.Probes)
	}
	return gt
}
