package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ndnprivacy/internal/telemetry"
)

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Table)-3 {
		t.Errorf("all selects %d entries, want every entry but bounds, audit and squid (%d)", len(all), len(Table)-3)
	}
	for _, e := range all {
		if e.Extra {
			t.Errorf("all selects extra entry %q", e.ID)
		}
	}
	for _, e := range Table {
		got, err := Select(e.ID)
		if err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("Select(%q) = %d entries, %v", e.ID, len(got), err)
		}
	}
	if _, err := Select("5c"); err == nil || !strings.Contains(err.Error(), IDs()) {
		t.Errorf("Select(5c) error = %v, want one listing %s", err, IDs())
	}
}

// TestSegmentReusesFigure3c pins the one dependency between entries:
// the segment-amplification entry reads Figure 3(c)'s accuracy, and a
// session that runs both runs 3(c) once, so its telemetry is merged once.
func TestSegmentReusesFigure3c(t *testing.T) {
	metrics := func(ids ...string) []byte {
		s := NewSession(Params{Seed: 1, Objects: 20, Runs: 2, Parallel: 2, Metrics: telemetry.NewRegistry()})
		for _, id := range ids {
			entries, err := Select(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := entries[0].Run(s); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		if err := s.Metrics.Snapshot().WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	once := metrics("3c")
	if len(once) == 0 {
		t.Fatal("Figure 3(c) recorded no metrics")
	}
	if !bytes.Equal(metrics("3c", "seg"), once) || !bytes.Equal(metrics("seg"), once) {
		t.Error("running seg changed Figure 3(c)'s metrics: 3(c) ran more than once")
	}
}
