package main

import "time"

// The benchmark's vocabulary: workload names, metric names, units and
// bounds. BENCHMARK.json at the repository root repeats it for the
// driver; TestSpecMatchesBenchmarkJSON keeps the two in step.

// Workload names. Later issues refer to them.
const (
	wSimHit      = "sim_hit"
	wSimMiss     = "sim_miss"
	wReplayFig5  = "replay_fig5"
	wDaemonZipf  = "daemon_zipf"
	wDaemonProbe = "daemon_probe"
)

// workloadOrder is the order the all-workloads command runs them in.
var workloadOrder = []string{wSimHit, wSimMiss, wReplayFig5, wDaemonZipf, wDaemonProbe}

// Pinned workload parameters. Changing one changes what the numbers
// mean, so the baseline must be measured again afterwards.
const (
	payloadBytes = 1024 // every Data payload, except replay_fig5's own 1 B

	simCSCapacity = 4096  // per router, chain U — R1 — R2 — P
	simHitObjects = 2048  // pre-fetched, all resident in R1
	simMissRing   = 32768 // 8x total CS capacity: every fetch misses both routers
	simMissWarmup = 3 * simCSCapacity
	simBatch      = 1024 // fetches between clock reads
	simEventsHit  = 8    // simulator events per cached fetch (see README)
	simEventsMiss = 19   // simulator events per fetch served by the producer

	// replay_fig5 replays Figure 5(a) at 25 000 requests per cell so a
	// repetition takes about a second and a run fits several.
	replayRequests = 25000

	daemonCapacity   = 4096
	opTimeoutSeconds = 2

	zipfObjects  = 14000
	zipfExponent = 0.9
	zipfWindow   = 16
	zipfWarmOps  = 30000
	// zipfMissShare is the share of fetches that reach the producer in
	// steady state, with the tolerance the correctness check allows.
	zipfMissShare    = 0.25
	zipfMissShareTol = 0.03
	// A name requested again within this many ops must still be cached
	// (half the store: far from the LRU tail, whatever order ndnd's
	// timer goroutines ran the interests in).
	zipfSureHitDistance = daemonCapacity / 2

	probeClassNames   = 512 // names per pre-fetched class
	probeWindow       = 1
	probeHitShare     = 0.40
	probePrivateShare = 0.20 // disguised hits; the remaining 0.40 misses
	probeWarmOps      = 2000
)

// How a run spends its time. The measured seconds are cut into short
// segments so that the fast decile has something to choose from; a
// segment still holds thousands of ops and, for the simulator, dozens of
// GC cycles, so it prices the garbage the code makes. A workload whose
// unit of work is longer (one replay_fig5 repetition) makes one segment
// of each unit.
const (
	segmentLength = 250 * time.Millisecond

	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, measured with tracing
// off on every workload. Bound is the share by which the metric may
// worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics, one layer per prefix. They
// carry no bound: they say where an end-to-end change came from.
var perLayer = []metricSpec{
	{"ndn.decode_interest_ns", "ns", "lower", 0},
	{"ndn.decode_interest_allocs", "count", "lower", 0},
	{"ndn.encode_interest_ns", "ns", "lower", 0},
	{"ndn.encode_interest_allocs", "count", "lower", 0},
	{"ndn.decode_data_ns", "ns", "lower", 0},
	{"ndn.decode_data_allocs", "count", "lower", 0},
	{"ndn.encode_data_ns", "ns", "lower", 0},
	{"ndn.encode_data_allocs", "count", "lower", 0},
	{"ndn.wire_size_data_ns", "ns", "lower", 0},
	{"ndn.wire_size_data_allocs", "count", "lower", 0},
	{"ndn.data_clone_ns", "ns", "lower", 0},
	{"ndn.data_clone_allocs", "count", "lower", 0},
	{"ndn.name_view_ns", "ns", "lower", 0},
	{"ndn.stream_read_ns", "ns", "lower", 0},
	{"ndn.stream_read_allocs", "count", "lower", 0},
	{"ndn.stream_write_ns", "ns", "lower", 0},
	{"ndn.stream_write_allocs", "count", "lower", 0},

	{"pcct.probe_hit_ns", "ns", "lower", 0},
	{"pcct.probe_miss_ns", "ns", "lower", 0},
	{"pcct.insert_evict_ns", "ns", "lower", 0},
	{"pcct.insert_evict_allocs", "count", "lower", 0},

	{"cache.exact_hit_ns", "ns", "lower", 0},
	{"cache.match_probed_ns", "ns", "lower", 0},
	{"cache.insert_evict_ns", "ns", "lower", 0},
	{"cache.insert_evict_allocs", "count", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},

	{"table.pit_insert_probed_ns", "ns", "lower", 0},
	{"table.pit_insert_probed_allocs", "count", "lower", 0},
	{"table.pit_satisfy_token_ns", "ns", "lower", 0},
	{"table.pit_satisfy_token_allocs", "count", "lower", 0},
	{"table.pit_aggregate_ns", "ns", "lower", 0},
	{"table.pit_aggregate_allocs", "count", "lower", 0},
	{"table.fib_lookup_ns", "ns", "lower", 0},
	{"table.fib_lookup_allocs", "count", "lower", 0},

	{"core.cm_decision_ns", "ns", "lower", 0},
	{"core.cm_decision_allocs", "count", "lower", 0},
	{"core.generated_miss_ratio", "ratio", "lower", 0},
	{"core.disguised_ratio", "ratio", "lower", 0},

	{"fwd.probe_wire_ns", "ns", "lower", 0},
	{"fwd.hit_pipeline_ns", "ns", "lower", 0},
	{"fwd.hit_pipeline_allocs", "count", "lower", 0},
	{"fwd.miss_pipeline_ns", "ns", "lower", 0},
	{"fwd.miss_pipeline_allocs", "count", "lower", 0},
	{"fwd.events_per_op", "count", "lower", 0},

	{"netsim.schedule_step_ns", "ns", "lower", 0},
	{"netsim.schedule_step_allocs", "count", "lower", 0},
	{"netsim.link_send_ns", "ns", "lower", 0},
	{"netsim.link_send_allocs", "count", "lower", 0},
	{"netsim.wall_share.link", "ratio", "lower", 0},
	{"netsim.wall_share.forward", "ratio", "lower", 0},
	{"netsim.wall_share.app", "ratio", "lower", 0},
	{"netsim.wall_share.countermeasure", "ratio", "lower", 0},
	{"netsim.wall_share.timer", "ratio", "lower", 0},
	{"netsim.wall_share.other", "ratio", "lower", 0},

	{"rt.schedule0_ns", "ns", "lower", 0},
	{"rt.schedule0_allocs", "count", "lower", 0},
	{"rt.timer_lateness_p50_us", "us", "lower", 0},

	{"load.tcp_floor_rtt_p50_us", "us", "lower", 0},
	{"netface.rtt_over_floor_us", "us", "lower", 0},

	{"trace.generator_next_ns", "ns", "lower", 0},
	{"trace.generator_next_allocs", "count", "lower", 0},
	{"trace.zipf_sample_ns", "ns", "lower", 0},

	{"sweep.parallel_speedup", "ratio", "higher", 0},
	{"sweep.cell_wall_max_over_mean", "ratio", "lower", 0},

	{"telemetry.counters_overhead_ratio", "ratio", "lower", 0},
	{"telemetry.spans_overhead_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},

	{"host.allocs_per_op", "count", "lower", 0},
	{"host.alloc_bytes_per_op", "B", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},

	{"load.rtt_p50_us", "us", "lower", 0},
	{"load.rtt_p99_us", "us", "lower", 0},
	{"load.rtt_p999_us", "us", "lower", 0},
	{"load.hit_rtt_p50_us", "us", "lower", 0},
	{"load.disguised_rtt_p50_us", "us", "lower", 0},
	{"load.miss_rtt_p50_us", "us", "lower", 0},
	{"load.miss_share", "ratio", "lower", 0},
	{"load.gen_cpu_us_per_op", "us", "lower", 0},
	{"load.samples", "count", "higher", 0},
	{"load.failed_share", "ratio", "lower", 0},

	{"ledger.coverage", "ratio", "higher", 0},
}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	wSimHit:      "virtual time, every fetch answered by R1's store: the read path (probe, CM decision, event queue, size-by-encode, Data.Clone); PIT/FIB/CS-insert idle",
	wSimMiss:     "virtual time, 32768-name ring over two 4096-entry stores, every fetch reaches the producer: the write path (PIT insert/satisfy, FIB, CS insert+evict)",
	wReplayFig5:  "Figure 5(a) trace replay: trace+cache+pcct+core+sweep, bypasses fwd/netsim/wire codec, so an event-heap or codec change must not move it",
	wDaemonZipf:  "wall clock, ndnd subprocess over loopback TCP, Zipf(0.9) window 16: throughput through sockets, stream codec, rt timers and netface writes",
	wDaemonProbe: "wall clock, ndnd with the delay manager, window 1, hit/disguised/miss classes: the adversary's one-probe-at-a-time latency channel",
}
