package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Renderable is any experiment result with a human-readable table form.
type Renderable interface{ Render() string }

// Reporter collects experiment results and emits them either as rendered
// tables (streamed as they arrive) or as one JSON document on Flush.
type Reporter struct {
	out      io.Writer
	jsonMode bool
	results  map[string]any
}

// NewReporter builds a reporter writing to out.
func NewReporter(out io.Writer, jsonMode bool) *Reporter {
	return &Reporter{out: out, jsonMode: jsonMode, results: make(map[string]any)}
}

// Add records one experiment result under a stable identifier.
func (r *Reporter) Add(id string, res Renderable) {
	if r.jsonMode {
		r.results[id] = res
		return
	}
	fmt.Fprintln(r.out, res.Render())
}

// Flush writes the JSON document in JSON mode; it is a no-op otherwise.
func (r *Reporter) Flush() error {
	if !r.jsonMode {
		return nil
	}
	enc := json.NewEncoder(r.out)
	enc.SetIndent("", "  ")
	return enc.Encode(r.results)
}

// SegmentResult packages the amplification rows for reporting.
type SegmentResult struct {
	SingleProbe float64
	Rows        []SegmentRow
}

// Render implements Renderable.
func (s SegmentResult) Render() string {
	return RenderSegmentRows(s.SingleProbe, s.Rows)
}
