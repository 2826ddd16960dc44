package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

type fakeResult struct {
	Value int
}

func (f fakeResult) Render() string { return "rendered-fake" }

func TestReporterTableMode(t *testing.T) {
	var buf strings.Builder
	r := NewReporter(&buf, false)
	r.Add("one", fakeResult{Value: 1})
	r.Add("two", fakeResult{Value: 2})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "rendered-fake") != 2 {
		t.Errorf("table output = %q", out)
	}
	if strings.Contains(out, "{") {
		t.Error("table mode emitted JSON")
	}
}

func TestReporterJSONMode(t *testing.T) {
	var buf strings.Builder
	r := NewReporter(&buf, true)
	r.Add("one", fakeResult{Value: 1})
	r.Add("two", fakeResult{Value: 2})
	if buf.Len() != 0 {
		t.Error("JSON mode streamed output before Flush")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]fakeResult
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded["one"].Value != 1 || decoded["two"].Value != 2 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestSegmentResultRender(t *testing.T) {
	res := SegmentResult{SingleProbe: 0.59, Rows: SegmentAmplification(0.59, 3)}
	if !strings.Contains(res.Render(), "amplification") {
		t.Error("SegmentResult render missing content")
	}
}
