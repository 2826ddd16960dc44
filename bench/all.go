package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resultFile is what the all-workloads command leaves in the out
// directory: the environment and every workload's result.
type resultFile struct {
	Environment environment          `json:"environment"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Traced      bool                 `json:"traced"`
	Workloads   map[string]runResult `json:"workloads"`
}

// runChild runs one workload in a child process of this binary, so peak
// RSS, CPU time and GC state never leak from one workload into the
// next, and parses the result from the last line of its output.
func runChild(ctx context.Context, cfg runConfig, workload string, traced, short bool) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
		"-out", cfg.outDir,
	}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	// On cancellation ask the child to unwind (it reaps its own ndnd)
	// before falling back to a kill.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: result not correct", workload)
	}
	return res, nil
}

// runAll runs the five workloads one at a time, prints a line per
// (workload, metric) and writes the result file.
func runAll(ctx context.Context, cfg runConfig, traced, short bool, w io.Writer) (resultFile, error) {
	file := resultFile{
		Environment: currentEnvironment(),
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Traced:      traced,
		Workloads:   make(map[string]runResult, len(workloadOrder)),
	}
	specs, name := endToEnd, "result.json"
	if traced {
		specs, name = perLayer, "result-trace.json"
	}
	for _, workload := range workloadOrder {
		res, err := runChild(ctx, cfg, workload, traced, short)
		if err != nil {
			return file, err
		}
		file.Workloads[workload] = res
		for _, spec := range specs {
			m := res.Metrics[spec.Name]
			fmt.Fprintf(w, "%-13s %-36s %16.4f %s\n", workload, spec.Name, m.Value, m.Unit)
		}
		fmt.Fprintf(w, "%-13s %-36s %16d of %d\n", workload, "failed", res.Failed, res.Attempted)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return file, err
	}
	return file, os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644)
}

// runAgree runs the untraced set twice back to back and reports, per
// (workload, end-to-end metric), both values, how far the second is
// worse than the first, and whether that stays within the bound.
func runAgree(ctx context.Context, cfg runConfig, short bool) error {
	first, err := runAll(ctx, cfg, false, short, io.Discard)
	if err != nil {
		return err
	}
	second, err := runAll(ctx, cfg, false, short, io.Discard)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-15s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "")
	failures := 0
	for _, workload := range workloadOrder {
		for _, spec := range endToEnd {
			a := first.Workloads[workload].Metrics[spec.Name].Value
			b := second.Workloads[workload].Metrics[spec.Name].Value
			worse := worsening(spec, a, b)
			verdict := "PASS"
			if worse > spec.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%-13s %-15s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", workload, spec.Name, a, b, 100*worse, 100*spec.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", failures)
	}
	return nil
}

// worsening is the share of base by which value is worse, in either
// order of the pair: two runs of the same code have no "before".
func worsening(spec metricSpec, a, b float64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if rest, found := strings.CutPrefix(line, "model name"); found {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitCommit names the commit under test; a checkout without git
// metadata reads "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
