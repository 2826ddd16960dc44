package attack

import (
	"testing"

	"ndnprivacy/internal/telemetry/span"
)

func TestRunTieredThreeModalSeparation(t *testing.T) {
	spans := span.NewTracer(0)
	res, err := RunTiered(ScenarioConfig{Seed: 42, Objects: 60, Runs: 3, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RAMHit) != 60 || len(res.DiskHit) != 60 || len(res.Miss) != 60 {
		t.Fatalf("sample counts ram/disk/miss = %d/%d/%d, want 60 each",
			len(res.RAMHit), len(res.DiskHit), len(res.Miss))
	}
	// The LAN topology plus the 2ms disk model should separate the
	// three latency classes essentially perfectly.
	if res.Accuracy < 0.95 {
		t.Errorf("three-way accuracy = %v, want ≥ 0.95", res.Accuracy)
	}
	if !(res.T1 < res.T2) {
		t.Errorf("thresholds out of order: T1=%v T2=%v", res.T1, res.T2)
	}

	// The two-cut classifier must also agree with causal span ground
	// truth: engineered placement (sample labels) and observed causality
	// (disk-read spans) tell the same story.
	truths := probeTruths(spans.Records(), "A")
	if len(truths) != 180 {
		t.Fatalf("ground truth scored %d probes, want 180", len(truths))
	}
	const miss, ram, disk = 0, 1, 2
	var classes [3]int
	agree := 0
	for _, p := range truths {
		truth, predicted := miss, miss
		switch {
		case p.hit && p.disk:
			truth = disk
		case p.hit:
			truth = ram
		}
		switch {
		case p.totalMS <= res.T1:
			predicted = ram
		case p.totalMS <= res.T2:
			predicted = disk
		}
		classes[truth]++
		if predicted == truth {
			agree++
		}
	}
	if classes[ram] != 60 || classes[disk] != 60 || classes[miss] != 60 {
		t.Errorf("causal truth classes ram/disk/miss = %d/%d/%d, want 60 each (engineered placement violated)",
			classes[ram], classes[disk], classes[miss])
	}
	if accuracy := float64(agree) / 180; accuracy < 0.95 {
		t.Errorf("ground-truth agreement = %v, want ≥ 0.95", accuracy)
	}
}

func TestRunTieredDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) *TieredResult {
		res, err := RunTiered(ScenarioConfig{Seed: 7, Objects: 30, Runs: 4, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, wide := run(1), run(4)
	if serial.Accuracy != wide.Accuracy || serial.T1 != wide.T1 || serial.T2 != wide.T2 {
		t.Errorf("classifier diverged across parallelism: %+v vs %+v", serial, wide)
	}
	for i := range serial.RAMHit {
		if serial.RAMHit[i] != wide.RAMHit[i] {
			t.Fatalf("RAM sample %d diverged: %v vs %v", i, serial.RAMHit[i], wide.RAMHit[i])
		}
	}
	for i := range serial.DiskHit {
		if serial.DiskHit[i] != wide.DiskHit[i] {
			t.Fatalf("disk sample %d diverged: %v vs %v", i, serial.DiskHit[i], wide.DiskHit[i])
		}
	}
}
