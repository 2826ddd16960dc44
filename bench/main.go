// Command bench is the repository's benchmark: five named workloads over
// the NDN cache-privacy stack, measured end to end with tracing off and
// layer by layer in a separate traced run. See README.md.
//
// Usage, from this directory (bench/run.sh builds and forwards):
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>   one workload, result as the last line
//	bench -seed <n>                 all five, untraced, a line per metric, out/result.json
//	bench -seed <n> -trace 1        all five, traced, out/result-trace.json, trace and ledger files
//	bench -seed <n> -agree          the untraced set twice, compared against the bounds
//	bench -short ...                half a second and one set-up per workload, all checks on
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "run this workload in this process; empty runs all five, one child process each")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 8, "measured seconds per workload")
	traced := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
	short := flag.Bool("short", false, "half a second measured and one set-up per workload, every correctness check")
	agree := flag.Bool("agree", false, "run the untraced set twice and compare each metric against its bound")
	outDir := flag.String("out", "out", "directory for build outputs, logs, traces, ledgers and results")
	flag.Parse()

	// A signal cancels ctx, which kills every subprocess started under it;
	// the run then fails on its next read and unwinds through its
	// tear-downs, so nothing is left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *workload, *seed, *seconds, *traced, *short, *agree, *outDir)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, seed int64, seconds float64, traced int, short, agree bool, outDir string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace is 0 or 1, got %d", traced)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	if _, err := os.Stat(replayGolden); err != nil {
		return fmt.Errorf("run from the bench directory (bench/run.sh does): %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{workload: workload, seed: seed, seconds: seconds, short: short, outDir: outDir}
	if short {
		cfg.seconds = 0.5
	}
	switch {
	case workload == "" && agree:
		return runAgree(ctx, cfg, short)
	case workload == "":
		_, err := runAll(ctx, cfg, traced == 1, short, os.Stdout)
		return err
	default:
		res, err := runWorkload(ctx, cfg, traced == 1)
		if err != nil {
			return err
		}
		return res.print()
	}
}

// runWorkload measures one workload. A failed op is an error: the
// workloads are chosen so that none fails.
func runWorkload(ctx context.Context, cfg runConfig, traced bool) (runResult, error) {
	var values map[string]float64
	var attempted, failed int
	var err error
	specs := endToEnd
	if traced {
		specs = perLayer
		values, attempted, failed, err = runTraced(ctx, cfg)
	} else {
		var build func() (system, error)
		if build, err = systemBuilder(ctx, cfg); err == nil {
			var m measured
			m, err = measure(build, cfg)
			values = m.endToEndValues()
			attempted, failed = m.totals()
		}
	}
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if failed > 0 {
		return runResult{}, fmt.Errorf("%s: %d of %d ops failed", cfg.workload, failed, attempted)
	}
	res, err := newResult(specs, values, attempted, failed)
	if err != nil {
		return res, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return res, nil
}

// systemBuilder returns the constructor for the workload's system.
func systemBuilder(ctx context.Context, cfg runConfig) (build func() (system, error), err error) {
	switch cfg.workload {
	case wSimHit, wSimMiss:
		miss := cfg.workload == wSimMiss
		return func() (system, error) { return newSimSystem(miss, cfg.seed, simHooks{}), nil }, nil
	case wReplayFig5:
		return func() (system, error) { return &replaySystem{seed: cfg.seed}, nil }, nil
	case wDaemonZipf, wDaemonProbe:
		if err := loopbackAvailable(); err != nil {
			return nil, fmt.Errorf("%s needs loopback TCP: %w", cfg.workload, err)
		}
		bin, err := buildNdnd(ctx, cfg.outDir)
		if err != nil {
			return nil, err
		}
		where, err := place()
		if err != nil {
			return nil, err
		}
		return func() (system, error) {
			return newDaemonSystem(ctx, cfg.workload, cfg.seed, bin, where, cfg.outDir)
		}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (one of %v)", cfg.workload, workloadOrder)
	}
}

// environment describes the machine and build a result was measured on.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	return environment{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}
