package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/experiments"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
	"ndnprivacy/internal/trace"
)

// The traced run. It does two things per workload and keeps every span
// in memory until the end: it re-runs the workload with the stack's
// public instrumentation hooks attached, pricing each against an
// unhooked segment measured in the same process, and it runs the ledger
// pass. Its numbers never feed the end-to-end metrics.

// tracedRun accumulates one traced run.
type tracedRun struct {
	cfg    runConfig
	rec    *spanRecorder
	root   int
	values map[string]float64

	attempted, failed int
	// endToEndNS is the cost of one op the ledger's coverage divides by,
	// and denominator says what it is.
	endToEndNS  float64
	denominator string
	uses        []ledgerUse
	ledgerIn    ledgerInput
}

// part is the share of -seconds one traced sub-run gets.
func (t *tracedRun) part(share float64) time.Duration {
	return time.Duration(t.cfg.seconds * share * float64(time.Second))
}

func runTraced(ctx context.Context, cfg runConfig) (map[string]float64, int, int, error) {
	rec := newSpanRecorder(cfg.workload)
	t := &tracedRun{cfg: cfg, rec: rec, root: rec.begin("run", 0), values: make(map[string]float64)}
	for _, spec := range perLayer {
		t.values[spec.Name] = 0 // units that do not occur in this workload read 0
	}
	var err error
	switch cfg.workload {
	case wSimHit, wSimMiss:
		err = t.sim()
	case wReplayFig5:
		err = t.replay()
	case wDaemonZipf, wDaemonProbe:
		err = t.daemon(ctx)
	default:
		err = fmt.Errorf("unknown workload %q (one of %v)", cfg.workload, workloadOrder)
	}
	if err != nil {
		return nil, t.attempted, t.failed, err
	}
	if err := t.tcpFloor(); err != nil {
		return nil, t.attempted, t.failed, err
	}

	led := newLedger(rec, rec.begin("ledger", t.root))
	if err := led.run(t.ledgerIn); err != nil {
		return nil, t.attempted, t.failed, err
	}
	rec.end(led.parent)
	led.values(t.values)
	t.values["ledger.coverage"] = led.coverage(t.uses, t.endToEndNS)
	if t.attempted > 0 {
		t.values["load.failed_share"] = float64(t.failed) / float64(t.attempted)
	}
	rec.end(t.root)

	if err := rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
		return nil, t.attempted, t.failed, err
	}
	report := led.render(cfg.workload, t.uses, t.endToEndNS, t.denominator)
	if err := os.WriteFile(filepath.Join(cfg.outDir, "ledger-"+cfg.workload+".md"), []byte(report), 0o644); err != nil {
		return nil, t.attempted, t.failed, err
	}
	return t.values, t.attempted, t.failed, nil
}

// segmentCost is what one traced segment cost per op: wall time, the
// bench process's allocations and CPU, and the CPU of the process
// hosting the system under test.
type segmentCost struct {
	opsPerS, nsPerOp        float64
	allocsPerOp, bytesPerOp float64
	cpuUSPerOp              float64
	sutCPUNSPerOp           float64
	ops                     int
}

// timedSegment runs one segment under a span.
func (t *tracedRun) timedSegment(name string, sys system, d time.Duration) (segmentCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := pidCPU(0)
	if err != nil {
		return segmentCost{}, err
	}
	sut0, err := sys.cpu()
	if err != nil {
		return segmentCost{}, err
	}
	id := t.rec.begin(name, t.root)
	attempted, failed, err := sys.segment(d)
	wall := t.rec.end(id)
	if err != nil {
		return segmentCost{}, err
	}
	sut1, err := sys.cpu()
	if err != nil {
		return segmentCost{}, err
	}
	cpu1, err := pidCPU(0)
	if err != nil {
		return segmentCost{}, err
	}
	runtime.ReadMemStats(&after)
	t.attempted += attempted
	t.failed += failed
	good := attempted - failed
	if good <= 0 {
		return segmentCost{}, fmt.Errorf("%s: no op succeeded", name)
	}
	n := float64(good)
	return segmentCost{
		opsPerS:       n / wall.Seconds(),
		nsPerOp:       float64(wall.Nanoseconds()) / n,
		allocsPerOp:   float64(after.Mallocs-before.Mallocs) / n,
		bytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / n,
		cpuUSPerOp:    float64((cpu1 - cpu0).Microseconds()) / n,
		sutCPUNSPerOp: float64((sut1 - sut0).Nanoseconds()) / n,
		ops:           good,
	}, nil
}

// setPeakRSS reads the high-water mark of the process hosting the system
// under test; call it while that process is still alive.
func (t *tracedRun) setPeakRSS(sys system) error {
	kb, err := sys.peakRSSkB()
	t.values["host.peak_rss_mb"] = float64(kb) / 1024
	return err
}

func (t *tracedRun) setHost(base segmentCost) {
	t.values["host.allocs_per_op"] = base.allocsPerOp
	t.values["host.alloc_bytes_per_op"] = base.bytesPerOp
	t.values["load.gen_cpu_us_per_op"] = base.cpuUSPerOp
}

// setLatency reports the op latency distribution from ns samples.
func (t *tracedRun) setLatency(samples []uint32) {
	sorted := sortedCopy(samples)
	t.values["load.samples"] = float64(len(sorted))
	t.values["load.rtt_p50_us"] = percentileOrZero(sorted, 50) / 1e3
	t.values["load.rtt_p99_us"] = percentileOrZero(sorted, 99) / 1e3
	t.values["load.rtt_p999_us"] = percentileOrZero(sorted, 99.9) / 1e3
}

// --- sim_hit, sim_miss ---

func (t *tracedRun) sim() error {
	miss := t.cfg.workload == wSimMiss
	build := func(name string, hooks simHooks) (*simSystem, error) {
		s := newSimSystem(miss, t.cfg.seed, hooks)
		id := t.rec.begin("setup."+name, t.root)
		err := s.setUp()
		t.rec.end(id)
		return s, err
	}

	plain, err := build("plain", simHooks{})
	if err != nil {
		return err
	}
	base, err := t.timedSegment("segment.plain", plain, t.part(0.15))
	if err != nil {
		return err
	}
	t.setHost(base)
	t.endToEndNS, t.denominator = base.nsPerOp, "host wall time per fetch, tracing off, one thread"
	t.values["fwd.events_per_op"] = float64(plain.sim.Steps()-plain.steps0) / float64(plain.ops-plain.ops0)

	// Per-fetch host latency: two clock reads per op, traced run only.
	lat := make([]uint32, 0, 1<<18)
	id := t.rec.begin("segment.per_op_latency", t.root)
	for deadline := time.Now().Add(t.part(0.1)); time.Now().Before(deadline); {
		start := time.Now()
		ok := plain.fetchOne()
		lat = append(lat, uint32(time.Since(start)))
		t.attempted++
		if !ok {
			t.failed++
		}
	}
	t.rec.end(id)
	t.setLatency(lat)
	class := "load.hit_rtt_p50_us"
	if miss {
		class = "load.miss_rtt_p50_us"
		t.values["load.miss_share"] = 1
	}
	t.values[class] = t.values["load.rtt_p50_us"]
	if err := plain.verify(); err != nil {
		return err
	}
	if err := t.setPeakRSS(plain); err != nil {
		return err
	}
	st := plain.r1.Stats()
	if lookups := st.CacheHits + st.DisguisedHits + st.GeneratedMisses + st.RealMisses; lookups > 0 {
		t.values["cache.hit_ratio"] = float64(st.CacheHits+st.DisguisedHits+st.GeneratedMisses) / float64(lookups)
		t.values["core.generated_miss_ratio"] = float64(st.GeneratedMisses) / float64(lookups)
		t.values["core.disguised_ratio"] = float64(st.DisguisedHits) / float64(lookups)
	}
	plain.tearDown()
	releaseMemory()

	// One hook at a time, then all three: each ratio is the hooked cost
	// per op over the unhooked cost per op.
	hooked := func(name string, hooks simHooks, drainSpans *span.Tracer) (float64, error) {
		s, err := build(name, hooks)
		if err != nil {
			return 0, err
		}
		defer func() {
			s.tearDown()
			releaseMemory()
		}()
		// Span storage is recycled between batches, outside the timed
		// part, so the ratio prices recording, not retained memory.
		var busy time.Duration
		ops := 0
		id := t.rec.begin("segment."+name, t.root)
		for deadline := time.Now().Add(t.part(0.1)); time.Now().Before(deadline); {
			start := time.Now()
			failed := s.fetch(simBatch)
			busy += time.Since(start)
			ops += simBatch
			t.attempted += simBatch
			t.failed += failed
			if drainSpans != nil {
				drainSpans.Reset()
			}
		}
		t.rec.end(id)
		if err := s.verify(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return float64(busy.Nanoseconds()) / float64(ops) / base.nsPerOp, nil
	}
	if t.values["telemetry.counters_overhead_ratio"], err = hooked("counters", simHooks{registry: telemetry.NewRegistry()}, nil); err != nil {
		return err
	}
	tracer := span.NewTracer(t.cfg.seed)
	if t.values["telemetry.spans_overhead_ratio"], err = hooked("spans", simHooks{spans: tracer}, tracer); err != nil {
		return err
	}
	profiler := netsim.NewProfiler(64)
	tracer = span.NewTracer(t.cfg.seed)
	all := simHooks{profiler: profiler, spans: tracer, registry: telemetry.NewRegistry()}
	if t.values["trace.overhead_ratio"], err = hooked("all_hooks", all, tracer); err != nil {
		return err
	}
	t.wallShares(profiler)

	// What the ledger replays: the workload's own names.
	names := make([]ndn.Name, ledgerNames)
	base0 := producerPrefix.AppendString("o")
	for i := range names {
		names[i] = base0.AppendString(strconv.Itoa(i))
	}
	t.ledgerIn = ledgerInput{
		seed: t.cfg.seed, names: names, payloadBytes: payloadBytes,
		manager: func() (core.CacheManager, error) { return core.NewNoPrivacy(), nil },
	}
	if miss {
		t.uses = simMissUses
	} else {
		t.uses = simHitUses
	}
	return nil
}

// simHitUses counts, for one fetch answered by R1, the calls into each
// measured unit along U -> R1 -> U (see README, "Reading a ledger").
var simHitUses = []ledgerUse{
	{"netsim.schedule_step", 6, "fetch, U forward, R1 forward, U forward (data), app deliver, lifetime timer"},
	{"netsim.link_send", 2, "U->R1 interest, R1->U data, each with its delivery event"},
	{"ndn.encode_interest", 1, "U sizes the upstream interest by encoding it"},
	{"ndn.wire_size_data", 2, "R1 and U size the Data by encoding it"},
	{"ndn.data_clone", 2, "R1 serves a copy, U copies per downstream face"},
	{"table.pit_insert_probed", 1, "U"},
	{"table.pit_satisfy_token", 1, "U"},
	{"table.fib_lookup", 1, "U"},
	{"cache.match_probed", 1, "R1's fused CS check"},
	{"pcct.probe_hit", 1, "R1's Touch re-probes the name"},
	{"core.cm_decision", 1, "R1"},
}

// simMissUses is the same for a fetch the producer answers, along
// U -> R1 -> R2 -> P and back.
var simMissUses = []ledgerUse{
	{"netsim.schedule_step", 13, "fetch, 4 interest forwards, producer deliver+answer, 4 data forwards, app deliver, lifetime timer"},
	{"netsim.link_send", 6, "three links, both directions, each with its delivery event"},
	{"ndn.encode_interest", 4, "U, R1, R2 and P size the outgoing interest by encoding it"},
	{"ndn.wire_size_data", 4, "P, R2, R1 and U size the Data by encoding it"},
	{"ndn.data_clone", 5, "producer answer, one per downstream face at P, R2, R1, U (store copies are in cache.insert_evict)"},
	{"table.pit_insert_probed", 4, "U, R1, R2, P"},
	{"table.pit_satisfy_token", 4, "P, R2, R1, U"},
	{"table.fib_lookup", 4, "U, R1, R2, P"},
	{"pcct.probe_miss", 2, "R1 and R2 CS checks"},
	{"cache.match_probed", 1, "producer repository lookup"},
	{"cache.insert_evict", 2, "R2 and R1 cache the Data, each evicting one"},
}

// wallShares turns the profiler's sampled buckets into each event
// kind's share of event-loop wall time.
func (t *tracedRun) wallShares(p *netsim.Profiler) {
	total := 0.0
	byKind := make(map[string]float64)
	for _, e := range p.Report() {
		if e.Samples == 0 {
			continue
		}
		wall := float64(e.Wall) * float64(e.Events) / float64(e.Samples)
		byKind[e.Kind.String()] += wall
		total += wall
	}
	if total == 0 {
		return
	}
	for _, kind := range []string{"link", "forward", "app", "countermeasure", "timer", "other"} {
		t.values["netsim.wall_share."+kind] = byKind[kind] / total
	}
}

// --- replay_fig5 ---

func (t *tracedRun) replay() error {
	plain := &replaySystem{seed: t.cfg.seed}
	id := t.rec.begin("setup.serial_reference", t.root)
	start := time.Now()
	err := plain.setUp()
	serial := time.Since(start)
	t.rec.end(id)
	if err != nil {
		return err
	}
	base, err := t.timedSegment("segment.plain", plain, t.part(0.15))
	if err != nil {
		return err
	}
	if err := plain.verify(); err != nil {
		return err
	}
	if err := t.setPeakRSS(plain); err != nil {
		return err
	}
	t.setHost(base)
	t.endToEndNS, t.denominator = base.sutCPUNSPerOp, "bench process CPU time per replayed request, tracing off"
	opsPerRep := float64(base.ops) / float64(plain.reps)
	t.values["sweep.parallel_speedup"] = serial.Seconds() / (opsPerRep / base.opsPerS)

	hooked := func(name string, s *replaySystem) (float64, error) {
		s.reference = plain.reference // hooks must not change a single statistic
		cost, err := t.timedSegment("segment."+name, s, t.part(0.08))
		if err != nil {
			return 0, err
		}
		if err := s.verify(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return cost.nsPerOp / base.nsPerOp, nil
	}
	if t.values["telemetry.counters_overhead_ratio"], err = hooked("counters", &replaySystem{seed: t.cfg.seed, registry: telemetry.NewRegistry()}); err != nil {
		return err
	}
	if t.values["telemetry.spans_overhead_ratio"], err = hooked("spans", &replaySystem{seed: t.cfg.seed, spans: span.NewTracer(t.cfg.seed)}); err != nil {
		return err
	}
	both := &replaySystem{seed: t.cfg.seed, registry: telemetry.NewRegistry(), spans: span.NewTracer(t.cfg.seed)}
	if t.values["trace.overhead_ratio"], err = hooked("all_hooks", both); err != nil {
		return err
	}
	releaseMemory()

	grid, err := t.replayGrid()
	if err != nil {
		return err
	}
	t.setLatency(grid.requestNS)
	t.values["load.hit_rtt_p50_us"] = float64(median32(grid.foundNS)) / 1e3
	t.values["load.miss_rtt_p50_us"] = float64(median32(grid.missNS)) / 1e3
	t.values["load.miss_share"] = 1 - grid.found
	t.values["cache.hit_ratio"] = grid.found
	t.values["core.generated_miss_ratio"] = grid.generated
	t.values["core.disguised_ratio"] = grid.disguised
	t.values["sweep.cell_wall_max_over_mean"] = grid.cellMaxOverMean

	names := make([]ndn.Name, ledgerNames)
	for i := range names {
		names[i] = trace.ObjectName(i)
	}
	t.ledgerIn = ledgerInput{
		seed: t.cfg.seed, names: names, payloadBytes: 1, privateShare: 0.1,
		manager: func() (core.CacheManager, error) { return core.NewDelayManager(core.NewContentSpecificDelay()) },
	}
	found := grid.found
	t.uses = []ledgerUse{
		{"trace.generator_next", 1, "one request drawn (includes trace.zipf_sample)"},
		{"cache.exact_hit", found, "requests whose name is cached"},
		{"pcct.probe_hit", found, "Touch re-probes the name"},
		{"core.cm_decision", found, "manager decides on every cached name"},
		{"pcct.probe_miss", 1 - found, "lookup of an absent name"},
		{"cache.insert_evict", 1 - found + grid.generated, "fetched content cached; generated misses refresh"},
	}
	return nil
}

// replayGridStats is what the instrumented Figure 5(a) grid yields.
type replayGridStats struct {
	found, generated, disguised float64 // shares of all requests, grid-wide
	cellMaxOverMean             float64
	requestNS, foundNS, missNS  []uint32 // sampled per-request cost in the isolated store+manager loop
}

// replayGrid runs Figure 5(a)'s 24 cells through sweep.Run with the
// bench's own cells, built from the same public constructors, so each
// cell's wall time and serving-class counts become visible.
func (t *tracedRun) replayGrid() (replayGridStats, error) {
	type cellOut struct {
		stats trace.ReplayStats
		wall  time.Duration
	}
	const k, eps = 5, 0.005
	alpha, err := core.GeometricAlphaForEpsilon(k, eps)
	if err != nil {
		return replayGridStats{}, err
	}
	managers := []struct {
		name  string
		build func(rng *rand.Rand) (core.CacheManager, error)
	}{
		{"no-privacy", func(*rand.Rand) (core.CacheManager, error) { return core.NewNoPrivacy(), nil }},
		{"exponential", func(rng *rand.Rand) (core.CacheManager, error) {
			dist, err := core.NewGeometricUnbounded(alpha)
			if err != nil {
				return nil, err
			}
			return core.NewRandomCache(dist, rng)
		}},
		{"uniform", func(rng *rand.Rand) (core.CacheManager, error) {
			dist, err := core.NewUniformForPrivacy(k, core.ExponentialPrivacy(k, alpha, 0).Delta)
			if err != nil {
				return nil, err
			}
			return core.NewRandomCache(dist, rng)
		}},
		{"always-delay", func(*rand.Rand) (core.CacheManager, error) {
			return core.NewDelayManager(core.NewContentSpecificDelay())
		}},
	}
	var cells []sweep.Cell[cellOut]
	for _, size := range experiments.ScaledCacheSizes(replayRequests) {
		for _, m := range managers {
			size, m := size, m
			cells = append(cells, sweep.Cell[cellOut]{
				Labels: []string{"bench=grid", "algo=" + m.name, "size=" + strconv.Itoa(size)},
				Run: func(seed int64, _ telemetry.Provider) (cellOut, error) {
					start := time.Now()
					gen, err := trace.NewGenerator(trace.DefaultGeneratorConfig(t.cfg.seed, replayRequests))
					if err != nil {
						return cellOut{}, err
					}
					manager, err := m.build(rand.New(rand.NewSource(seed)))
					if err != nil {
						return cellOut{}, err
					}
					stats, err := trace.Replay(gen, trace.ReplayConfig{CacheSize: size, Manager: manager})
					return cellOut{stats: stats, wall: time.Since(start)}, err
				},
			})
		}
	}
	id := t.rec.begin("replay.grid", t.root)
	outs, err := sweep.Run(cells, sweep.Options{RootSeed: t.cfg.seed, Parallel: runtime.GOMAXPROCS(0)})
	t.rec.end(id)
	if err != nil {
		return replayGridStats{}, err
	}
	var g replayGridStats
	var requests, found, generated, disguised uint64
	var maxWall, sumWall time.Duration
	for _, o := range outs {
		requests += o.stats.Requests
		found += o.stats.Hits + o.stats.DisguisedHits + o.stats.GeneratedMisses
		generated += o.stats.GeneratedMisses
		disguised += o.stats.DisguisedHits
		sumWall += o.wall
		if o.wall > maxWall {
			maxWall = o.wall
		}
	}
	g.found = float64(found) / float64(requests)
	g.generated = float64(generated) / float64(requests)
	g.disguised = float64(disguised) / float64(requests)
	g.cellMaxOverMean = float64(maxWall) / (float64(sumWall) / float64(len(outs)))
	t.attempted += int(requests)

	g.requestNS, g.foundNS, g.missNS, err = t.replayRequestLatency()
	return g, err
}

// replayRequestLatency replays the trace once through the same store and
// manager calls trace.Replay makes (size 250, always-delay), timing each
// request on its own.
func (t *tracedRun) replayRequestLatency() (all, found, missed []uint32, err error) {
	gen, err := trace.NewGenerator(trace.DefaultGeneratorConfig(t.cfg.seed, replayRequests))
	if err != nil {
		return nil, nil, nil, err
	}
	manager, err := core.NewDelayManager(core.NewContentSpecificDelay())
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := cache.NewStore(250, cache.NewLRU())
	if err != nil {
		return nil, nil, nil, err
	}
	interest := ndn.NewInterest(ndn.Name{}, 0)
	id := t.rec.begin("replay.per_request_latency", t.root)
	defer t.rec.end(id)
	for {
		start := time.Now()
		req, more := gen.Next()
		if !more {
			return all, found, missed, nil
		}
		interest.Name = req.Name
		entry, hit := store.Exact(req.Name, req.At)
		if hit {
			store.Touch(req.Name)
			manager.OnCacheHit(entry, interest, req.At)
		} else {
			d, err := ndn.NewData(req.Name, []byte("x"))
			if err != nil {
				return nil, nil, nil, err
			}
			d.Private = req.Private
			manager.OnContentCached(store.Insert(d, req.At, 50*time.Millisecond), 50*time.Millisecond, req.At)
		}
		ns := uint32(time.Since(start))
		all = append(all, ns)
		if hit {
			found = append(found, ns)
		} else {
			missed = append(missed, ns)
		}
	}
}

// --- daemon_zipf, daemon_probe ---

func (t *tracedRun) daemon(ctx context.Context) error {
	if err := loopbackAvailable(); err != nil {
		return fmt.Errorf("%s needs loopback TCP: %w", t.cfg.workload, err)
	}
	bin, err := buildNdnd(ctx, t.cfg.outDir)
	if err != nil {
		return err
	}
	where, err := place()
	if err != nil {
		return err
	}
	sys, err := newDaemonSystem(ctx, t.cfg.workload, t.cfg.seed, bin, where, t.cfg.outDir)
	if err != nil {
		return err
	}
	defer sys.tearDown()
	id := t.rec.begin("setup", t.root)
	err = sys.setUp()
	t.rec.end(id)
	if err != nil {
		return err
	}
	base, err := t.timedSegment("segment.plain", sys, t.part(0.25))
	if err != nil {
		return err
	}
	t.setHost(base)
	t.endToEndNS, t.denominator = base.sutCPUNSPerOp, "ndnd CPU time per interest, tracing off"

	// The traced segment: one span per fetch, recorded by the consumer.
	// ndnd itself has no hook to attach, so this prices the generator's
	// own recording.
	sys.rec, sys.recParent = t.rec, t.rec.begin("segment.spans", t.root)
	tracedSeg, err := t.timedSegment("segment.spans.load", sys, t.part(0.25))
	t.rec.end(sys.recParent)
	sys.rec = nil
	if err != nil {
		return err
	}
	if err := sys.verify(); err != nil {
		return err
	}
	if err := t.setPeakRSS(sys); err != nil {
		return err
	}
	t.values["trace.overhead_ratio"] = tracedSeg.nsPerOp / base.nsPerOp
	// No registry or tracer reaches ndnd: by construction no overhead.
	t.values["telemetry.counters_overhead_ratio"] = 1
	t.values["telemetry.spans_overhead_ratio"] = 1

	t.setLatency(sys.rttAll)
	t.values["load.hit_rtt_p50_us"] = float64(median32(sys.rtt[classHit])) / 1e3
	t.values["load.disguised_rtt_p50_us"] = float64(median32(sys.rtt[classDisguised])) / 1e3
	t.values["load.miss_rtt_p50_us"] = float64(median32(sys.rtt[classMiss])) / 1e3
	miss := sys.missShare()
	disguised := float64(sys.served[classDisguised]) / float64(len(sys.rttAll))
	t.values["load.miss_share"] = miss
	t.values["cache.hit_ratio"] = 1 - miss
	t.values["core.disguised_ratio"] = disguised

	names := make([]ndn.Name, ledgerNames)
	for i := range names {
		names[i] = sys.stream.name(int32(i))
	}
	t.ledgerIn = ledgerInput{seed: t.cfg.seed, names: names, payloadBytes: payloadBytes}
	if t.cfg.workload == wDaemonProbe {
		t.ledgerIn.privateShare = probePrivateShare / (probeHitShare + probePrivateShare)
		t.ledgerIn.manager = func() (core.CacheManager, error) {
			return core.NewDelayManager(core.NewContentSpecificDelay())
		}
	} else {
		t.ledgerIn.manager = func() (core.CacheManager, error) { return core.NewNoPrivacy(), nil }
	}
	t.uses = []ledgerUse{
		{"ndn.stream_read", 1 + miss, "an interest from the consumer, a Data from the producer on a miss (decode included)"},
		{"rt.schedule0", 1 + miss + disguised, "every packet read is handed to the executor; a disguised hit adds a delay timer"},
		{"fwd.hit_pipeline", 1 - miss, "store lookup, manager decision, copy, size-by-encode"},
		{"fwd.miss_pipeline", miss, "PIT insert, FIB, forward; on the answer PIT satisfy, store insert+evict, copy"},
		{"ndn.stream_write", 1 + miss, "the Data to the consumer, the interest upstream on a miss (encode and flush included)"},
	}
	return nil
}

// tcpFloor measures the floor under every daemon RTT: the same framing
// echoed by a bare TCP peer in this process, no forwarder in between,
// one request in flight. It then measures a cached fetch through an
// in-process forwarder on rt + netface the same way; the difference is
// what rt, netface and the pipeline add on top of the sockets.
func (t *tracedRun) tcpFloor() error {
	if loopbackAvailable() != nil {
		return nil // no loopback: both metrics stay 0
	}
	id := t.rec.begin("tcp_floor", t.root)
	defer t.rec.end(id)
	floor, err := echoRTT(t.cfg.seed)
	if err != nil {
		return err
	}
	through, err := forwarderRTT(t.cfg.seed)
	if err != nil {
		return err
	}
	t.values["load.tcp_floor_rtt_p50_us"] = floor / 1e3
	t.values["netface.rtt_over_floor_us"] = math.Max(through-floor, 0) / 1e3
	return nil
}
