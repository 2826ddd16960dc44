// Command ndnsim reproduces the paper's evaluation: the timing attacks
// of Figure 3 and the in-text attacks built on them, the Random-Cache
// privacy/utility analysis of Figure 4, the trace-driven hit rates of
// Figure 5, the countermeasure and delay-placement studies, the tiered
// store extension and the ablations.
//
// Usage:
//
//	ndnsim [-fig ID|all] [-seed S] [-parallel N] [-json] [-paper]
//	       [-objects N] [-runs N] [-requests N] [-private F]
//	       [-k K] [-eps E] [-delta D] [-maxc C] [-squidlog FILE] [-cache N]
//	       [-metrics FILE] [-trace FILE] [-spans FILE]
//	       [-profile FILE] [-selfprofile N]
//
// Every experiment is one entry of experiments.Table; -fig names one
// entry, and "all" (the default) runs every entry except "bounds" (the
// (k, ε, δ) calculator for -k/-eps/-delta), "audit" (the empirical
// (ε, δ) audit of four cache managers) and "squid" (-squidlog FILE
// replays a real proxy log at -cache entries instead of -fig). The
// paper's scale is -paper (-objects 1000 -runs 50 -requests 3200000);
// the defaults are smaller so everything finishes in seconds. With
// -json, one JSON document replaces the rendered tables.
//
// -parallel runs each experiment's independent trials on a worker pool.
// Every output — tables, JSON, metrics, traces, spans — is
// byte-identical for any value: per-trial seeds derive from the
// experiment seed and the trial's grid labels, and per-trial telemetry
// merges in grid order. A failed trial does not stop the run: the
// remaining trials and experiments still run, partial tables print, and
// every failure is reported on stderr, with a non-zero exit.
//
// -metrics writes a snapshot of every counter, gauge and histogram the
// Figure 3 simulations and the Figure 5 replays touched (Prometheus
// text, or JSON when FILE ends in .json). -trace streams an NDJSON
// record per forwarding decision, cache transition, countermeasure coin
// and adversary probe, stamped with virtual time. -spans records
// interest-lifecycle spans of the simulations and cache-residency spans
// of the replays (Chrome trace_event when FILE ends in .json, for
// Perfetto or chrome://tracing; NDJSON otherwise).
//
// -profile writes a CPU profile of the whole invocation; pprof labels
// ("sweep_cell") attribute samples to grid cells. -selfprofile N
// samples the simulator event loop every Nth event (wall time and
// allocations per event kind and scenario phase) and prints the table
// to stderr; it never perturbs virtual-time results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"ndnprivacy/internal/experiments"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ndnsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ndnsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var p experiments.Params
	fig := fs.String("fig", "all", "experiment: "+experiments.IDs()+" (all leaves out bounds, audit and squid)")
	fs.Int64Var(&p.Seed, "seed", 1, "experiment seed")
	fs.IntVar(&p.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker pool size for independent trials (output is identical for any value)")
	jsonMode := fs.Bool("json", false, "emit one JSON document instead of tables")
	paper := fs.Bool("paper", false, "run at the paper's scale (-objects 1000 -runs 50 -requests 3200000)")
	fs.IntVar(&p.Objects, "objects", 200, "Figure 3 content objects per run (paper: 1000)")
	fs.IntVar(&p.Runs, "runs", 5, "Figure 3 repetitions with a fresh cache (paper: 50)")
	fs.IntVar(&p.Requests, "requests", 200000, "Figure 5 trace length (paper: 3200000)")
	fs.Float64Var(&p.PrivateFraction, "private", 0.1, "private content fraction for 5a and -squidlog")
	fs.Uint64Var(&p.K, "k", 5, "popularity threshold k (paper: 5)")
	fs.Float64Var(&p.Epsilon, "eps", 0.005, "privacy parameter ε (paper: 0.005)")
	fs.Float64Var(&p.Delta, "delta", 0.05, "privacy parameter δ for -fig bounds")
	fs.Uint64Var(&p.MaxC, "maxc", 100, "largest request count c for Figure 4 and -fig bounds")
	fs.StringVar(&p.SquidLog, "squidlog", "", "replay a real Squid/IRCache access log instead of -fig")
	fs.IntVar(&p.CacheSize, "cache", 2000, "cache size for -squidlog replay (0 = unlimited)")
	metricsPath := fs.String("metrics", "", "write a metrics snapshot (.json → JSON, else Prometheus text)")
	tracePath := fs.String("trace", "", "write an NDJSON virtual-time event trace")
	spansPath := fs.String("spans", "", "write spans (.json → Chrome trace_event, else NDJSON)")
	profilePath := fs.String("profile", "", "write a CPU profile of the whole invocation (sweep cells carry pprof labels)")
	selfProfile := fs.Int("selfprofile", 0, "sample the simulator event loop every Nth event and print per-kind/per-phase cost to stderr (0 = off)")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	if *paper {
		p.Objects, p.Runs, p.Requests = 1000, 50, 3_200_000
	}
	if p.SquidLog != "" {
		*fig = "squid"
	}
	entries, err := experiments.Select(*fig)
	if err != nil {
		return err
	}

	if *profilePath != "" {
		profFile, err := os.Create(*profilePath)
		if err != nil {
			return err
		}
		defer profFile.Close()
		if err := pprof.StartCPUProfile(profFile); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var tracer *telemetry.TraceWriter
	if *metricsPath != "" {
		p.Metrics = telemetry.NewRegistry()
	}
	if *tracePath != "" {
		traceFile, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		tracer = telemetry.NewTraceWriter(traceFile)
		p.Trace = tracer
	}
	if *spansPath != "" {
		p.Spans = span.NewTracer(p.Seed)
	}
	var profiler *netsim.Profiler
	if *selfProfile > 0 {
		profiler = netsim.NewProfiler(*selfProfile)
		p.Observe = func(_ int, sim *netsim.Simulator) { sim.SetProfiler(profiler) }
	}

	session := experiments.NewSession(p)
	report := experiments.NewReporter(stdout, *jsonMode)
	failed := 0
	for _, e := range entries {
		results, err := e.Run(session)
		var cells *sweep.Errors
		if errors.As(err, &cells) {
			for _, ce := range cells.Cells {
				fmt.Fprintf(stderr, "ndnsim: %s: %v\n", e.ID, ce)
			}
			failed += len(cells.Cells)
		} else if err != nil {
			return err
		}
		for _, r := range results {
			report.Add(r.Key, r.Table)
		}
	}
	if err := report.Flush(); err != nil {
		return err
	}

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if p.Metrics != nil {
		if err := p.Metrics.Snapshot().WriteFile(*metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if p.Spans != nil {
		if err := span.WriteFile(*spansPath, p.Spans.Records()); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if profiler != nil {
		fmt.Fprint(stderr, profiler.Render())
	}
	if failed > 0 {
		return fmt.Errorf("%d grid cell(s) failed (results above are partial)", failed)
	}
	return nil
}
