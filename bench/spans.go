package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// benchSpan is one interval the traced run recorded around a call into a
// layer. Times are nanoseconds since the recorder started. Parent is the
// id of the span that caused this one, 0 for a root.
type benchSpan struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Workload string `json:"workload"`
}

// spanRecorder keeps every span in memory until write, so recording
// costs an append and two clock reads and no I/O lands inside a span.
// It is used from one goroutine.
type spanRecorder struct {
	workload string
	epoch    time.Time
	spans    []benchSpan
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, epoch: time.Now(), spans: make([]benchSpan, 0, 1<<16)}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent and returns its id.
func (r *spanRecorder) begin(name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, benchSpan{ID: id, Parent: parent, Name: name, Start: r.now(), Workload: r.workload})
	return id
}

// end closes the span and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = r.now()
	return time.Duration(s.End - s.Start)
}

// add records a span whose interval the caller measured itself.
func (r *spanRecorder) add(name string, parent int, start, end int64) {
	r.spans = append(r.spans, benchSpan{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end, Workload: r.workload})
}

// write stores the spans as one JSON array, one span per line.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range r.spans {
		line, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		if i+1 < len(r.spans) {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
