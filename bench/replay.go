package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ndnprivacy/internal/experiments"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// replayGolden holds the sha256 of Figure5a's rendered table for seed 1
// at replayRequests: a simulator speed-up must leave every simulated
// statistic identical.
const replayGolden = "testdata/fig5a_seed1.sha256"

// replaySystem is the paper's Section VII evaluation: Figure 5(a)'s
// grid of (cache size, algorithm) cells, each replaying the synthetic
// trace, on the sweep engine's worker pool. One op is one replayed
// trace request.
type replaySystem struct {
	seed     int64
	registry *telemetry.Registry
	spans    *span.Tracer

	// reference is the hash of the serial pass set-up made; every
	// measured repetition must reproduce it.
	reference string
	reps      int
	mismatch  int
}

func (s *replaySystem) run(parallel int) (hash string, ops int, err error) {
	res, err := experiments.Figure5a(experiments.Figure5Config{
		Seed:     s.seed,
		Requests: replayRequests,
		Parallel: parallel,
		Metrics:  s.registry,
		Spans:    s.spans,
	})
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256([]byte(res.Render()))
	return hex.EncodeToString(sum[:]), len(res.Rows) * replayRequests, nil
}

// setUp makes the reference: one serial pass (Parallel 1), checked
// against the committed golden for seed 1.
func (s *replaySystem) setUp() error {
	hash, _, err := s.run(1)
	if err != nil {
		return err
	}
	s.reference = hash
	if s.seed != 1 {
		return nil
	}
	golden, err := os.ReadFile(filepath.FromSlash(replayGolden))
	if err != nil {
		return err
	}
	if want := strings.TrimSpace(string(golden)); hash != want {
		return fmt.Errorf("Figure 5(a) table for seed 1 hashes to %s, golden %s says %s: a simulated statistic changed", hash, replayGolden, want)
	}
	return nil
}

func (s *replaySystem) tearDown() {}

func (s *replaySystem) segment(d time.Duration) (attempted, failed int, err error) {
	deadline := time.Now().Add(d)
	for {
		hash, ops, err := s.run(runtime.GOMAXPROCS(0))
		if err != nil {
			return attempted, failed, err
		}
		attempted += ops
		s.reps++
		if hash != s.reference {
			s.mismatch++
			failed += ops
		}
		if !time.Now().Before(deadline) {
			return attempted, failed, nil
		}
	}
}

func (s *replaySystem) cpu() (time.Duration, error) { return pidCPU(0) }
func (s *replaySystem) peakRSSkB() (uint64, error)  { return pidPeakRSSkB(0) }

func (s *replaySystem) verify() error {
	if s.reps == 0 {
		return fmt.Errorf("no repetition measured")
	}
	if s.mismatch > 0 {
		return fmt.Errorf("%d of %d repetitions at Parallel %d rendered a different table than the serial pass",
			s.mismatch, s.reps, runtime.GOMAXPROCS(0))
	}
	return nil
}
