package span

import (
	"bytes"
	"reflect"
	"testing"
)

func TestStartRootDeterministicIDs(t *testing.T) {
	a, b := NewTracer(42), NewTracer(42)
	for i := 0; i < 16; i++ {
		ra, ctxA := a.StartRoot(uint64(i*7), "A", "/p/x", int64(i))
		rb, ctxB := b.StartRoot(uint64(i*7), "A", "/p/x", int64(i))
		if ctxA != ctxB {
			t.Fatalf("issue %d: contexts differ: %+v vs %+v", i, ctxA, ctxB)
		}
		if ra.Trace == 0 {
			t.Fatal("trace ID 0 is reserved for untraced")
		}
		if *ra != *rb {
			t.Fatalf("issue %d: records differ", i)
		}
	}
	other := NewTracer(43)
	_, ctx42 := NewTracer(42).StartRoot(9, "A", "/p/x", 0)
	_, ctx43 := other.StartRoot(9, "A", "/p/x", 0)
	if ctx42.Trace == ctx43.Trace {
		t.Error("different seeds produced the same trace ID")
	}
}

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.Len() != 0 || tr.Records() != nil {
		t.Error("nil tracer holds records")
	}
	tr.SetSeed(7)
	tr.Reserve(100)
	tr.Merge([]Record{{ID: 1}})
	root, ctx := tr.StartRoot(1, "A", "/x", 0)
	if root != nil || ctx != (Context{}) {
		t.Error("nil tracer returned a live root")
	}
	child, cctx := tr.Begin(ctx, KindHop, "R", "/x", 0)
	if child != nil || cctx != (Context{}) {
		t.Error("nil tracer returned a live child")
	}
	tr.End(child, 5, "ok")
	tr.Span(ctx, KindCS, "R", "/x", "hit", 0, 0, 0)
}

func TestBeginEndSpanRecording(t *testing.T) {
	tr := NewTracer(1)
	root, ctx := tr.StartRoot(11, "A", "/p/1", 100)
	hop, hctx := tr.Begin(ctx, KindHop, "R", "/p/1", 150)
	if hop.Parent != root.ID || hop.Trace != root.Trace {
		t.Errorf("hop parentage wrong: %+v", hop)
	}
	tr.Span(hctx, KindCS, "R", "/p/1", "hit", 200, 200, 0)
	tr.End(hop, 250, "serve")
	tr.End(root, 400, "ok")
	if hop.End != 250 || hop.Action != "serve" {
		t.Errorf("End did not close the hop: %+v", hop)
	}
	recs := tr.Records()
	if len(recs) != 3 || tr.Len() != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[2].Parent != hop.ID || recs[2].Action != "hit" {
		t.Errorf("one-shot span wrong: %+v", recs[2])
	}
}

func TestMergeRebasesIDs(t *testing.T) {
	target := NewTracer(0)
	cellA, cellB := NewTracer(1), NewTracer(2)
	_, actx := cellA.StartRoot(1, "A", "/a", 0)
	cellA.Begin(actx, KindHop, "R", "/a", 1)
	_, bctx := cellB.StartRoot(2, "A", "/b", 0)
	cellB.Begin(bctx, KindHop, "R", "/b", 1)

	target.Merge(cellA.Records())
	target.Merge(cellB.Records())
	recs := target.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate span ID %d after merge", r.ID)
		}
		seen[r.ID] = true
	}
	// Parent chains must survive the rebase.
	if recs[1].Parent != recs[0].ID {
		t.Errorf("cell A chain broken: hop parent %d, root %d", recs[1].Parent, recs[0].ID)
	}
	if recs[3].Parent != recs[2].ID {
		t.Errorf("cell B chain broken: hop parent %d, root %d", recs[3].Parent, recs[2].ID)
	}
	// Growing the merged tracer afterwards must not collide either.
	extra, _ := target.StartRoot(3, "A", "/c", 0)
	if seen[extra.ID] {
		t.Errorf("post-merge root reused ID %d", extra.ID)
	}
}

func TestReserveMakesRecordingAllocFree(t *testing.T) {
	tr := NewTracer(9)
	tr.Reserve(4 * 1000)
	var ctx Context
	allocs := testing.AllocsPerRun(1000, func() {
		root, rctx := tr.StartRoot(7, "A", "/p", 0)
		_, hctx := tr.Begin(rctx, KindHop, "R", "/p", 1)
		tr.Span(hctx, KindCS, "R", "/p", "hit", 2, 2, 0)
		tr.End(root, 3, "ok")
		ctx = rctx
	})
	_ = ctx
	if allocs != 0 {
		t.Errorf("recording into reserved storage allocated %.1f/op, want 0", allocs)
	}
}

func TestResetRestartsSequences(t *testing.T) {
	record := func(tr *Tracer) []Record {
		root, rctx := tr.StartRoot(7, "A", "/p", 0)
		_, hctx := tr.Begin(rctx, KindHop, "R", "/p", 1)
		tr.Span(hctx, KindCS, "R", "/p", "hit", 2, 2, 0)
		tr.End(root, 3, "ok")
		return tr.Records()
	}
	fresh := record(NewTracer(9))
	reused := NewTracer(9)
	// Push past one chunk so Reset exercises the storage-release path.
	for i := 0; i < 2*chunkSize; i++ {
		reused.Span(Context{Trace: 1, Span: 1}, KindCS, "R", "/p", "miss", 0, 0, 0)
	}
	reused.Reset()
	if reused.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", reused.Len())
	}
	if got := record(reused); !reflect.DeepEqual(got, fresh) {
		t.Errorf("reset tracer records differ from fresh tracer:\n%+v\nvs\n%+v", got, fresh)
	}
	var nilTracer *Tracer
	nilTracer.Reset() // must not panic
}

func TestDisabledRecordingAllocFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		root, rctx := tr.StartRoot(7, "A", "/p", 0)
		_, hctx := tr.Begin(rctx, KindHop, "R", "/p", 1)
		tr.Span(hctx, KindCS, "R", "/p", "hit", 2, 2, 0)
		tr.End(root, 3, "ok")
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocated %.1f/op, want 0", allocs)
	}
}

func TestWriteNDJSONByteStable(t *testing.T) {
	build := func() []byte {
		tr := NewTracer(5)
		_, ctx := tr.StartRoot(3, "A", "/p/0", 10)
		tr.Span(ctx, KindLink, "A<->R", "", "tx", 10, 20, 33)
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, tr.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("NDJSON output not byte-stable across identical runs")
	}
}
