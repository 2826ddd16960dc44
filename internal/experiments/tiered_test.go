package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ndnprivacy/internal/attack"
)

// e15Golden is the sha256 of `ndnsim -fig tier -seed 1` (E15 at the CLI
// defaults, the "tier" entry of Table), recorded before the second tier
// was folded into cache.Store. The figure depends on every modeled disk
// cost and every tier movement, so the hash pins the tiered store's
// behaviour end to end; cmd/ndnsim's whole-paper golden covers the same
// entry at a smaller scale.
const e15Golden = "3273ce71dcc15600d332683dc226ca6304a8f3a686df3d11f1b92218e9aca097"

func TestTieredTimingGolden(t *testing.T) {
	res, err := RunTieredTiming(attack.ScenarioConfig{Seed: 1, Objects: 200, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	NewReporter(&out, false).Add("tiered-timing", res)
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != e15Golden {
		t.Errorf("E15 rendering hash = %s, want %s\n%s", got, e15Golden, out.String())
	}
}

func TestRunTieredTiming(t *testing.T) {
	res, err := RunTieredTiming(attack.ScenarioConfig{Seed: 1, Objects: 30, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base.Accuracy < 0.95 {
		t.Errorf("undefended three-way accuracy = %g, want ≥ 0.95", res.Base.Accuracy)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("countermeasure rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		// A countermeasure must at least degrade the three-way channel.
		if row.Accuracy > res.Base.Accuracy-0.1 {
			t.Errorf("%s residual accuracy %g too close to baseline %g",
				row.Name, row.Accuracy, res.Base.Accuracy)
		}
		// But none reaches three-way chance: the delay families cannot
		// hide the disk read cost and random-cache leaves the primed
		// placement partly intact — the headline residual leak.
		if row.Accuracy < 1.0/3+0.05 {
			t.Errorf("%s residual accuracy %g at three-way chance — expected a residual leak",
				row.Name, row.Accuracy)
		}
	}
	r := res.Render()
	for _, want := range []string{"three-way timing channel", "residual", "guessing"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}
