package tiered

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

func openTier(t *testing.T, path string, capacity int) *FileTier {
	t.Helper()
	tier, err := OpenFileTier(FileTierConfig{Path: path, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

func fileEntry(t *testing.T, name string) *cache.Entry {
	t.Helper()
	d := mkData(t, name)
	d.Freshness = 30 * time.Millisecond
	return &cache.Entry{
		Data:         d,
		InsertedAt:   5 * time.Millisecond,
		FetchDelay:   3 * time.Millisecond,
		ForwardCount: 4,
		Private:      true,
		Counter:      2,
		Threshold:    7,
		ThresholdSet: true,
		GroupKey:     "/f",
	}
}

func TestFileTierRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 0)

	want := fileEntry(t, "/f/a")
	if _, err := tier.Put(want, 0); err != nil {
		t.Fatal(err)
	}
	got, cost, found := tier.Peek(ndn.MustParseName("/f/a"), time.Millisecond)
	if !found {
		t.Fatal("stored entry not found")
	}
	if cost != 0 {
		t.Errorf("file tier reported modeled cost %v, want 0 (real I/O is wall-clock)", cost)
	}
	if got.Data.Name.String() != "/f/a" || string(got.Data.Payload) != "payload-/f/a" {
		t.Errorf("payload mismatch: %+v", got.Data)
	}
	if got.Data.Freshness != want.Data.Freshness {
		t.Errorf("Freshness = %v, want %v", got.Data.Freshness, want.Data.Freshness)
	}
	if got.InsertedAt != want.InsertedAt || got.FetchDelay != want.FetchDelay ||
		got.ForwardCount != want.ForwardCount || got.Counter != want.Counter ||
		got.Threshold != want.Threshold || !got.ThresholdSet || !got.Private ||
		got.GroupKey != want.GroupKey {
		t.Errorf("metadata mismatch: %+v", got)
	}
}

func TestFileTierReopenRestoresIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 0)
	for _, name := range []string{"/f/a", "/f/b", "/f/c"} {
		if _, err := tier.Put(fileEntry(t, name), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh /f/a (later record shadows earlier) and remove /f/b
	// (tombstone must survive reopen).
	if _, err := tier.Put(fileEntry(t, "/f/a"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Remove(ndn.MustParseName("/f/b")); !ok {
		t.Fatal("Remove reported absent")
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openTier(t, path, 0)
	if got := reopened.Len(); got != 2 {
		t.Fatalf("reopened Len = %d, want 2", got)
	}
	if _, _, found := reopened.Peek(ndn.MustParseName("/f/b"), 0); found {
		t.Error("tombstoned entry resurrected on reopen")
	}
	for _, name := range []string{"/f/a", "/f/c"} {
		e, _, found := reopened.Peek(ndn.MustParseName(name), 0)
		if !found {
			t.Fatalf("%s lost on reopen", name)
		}
		if e.Data.Name.String() != name {
			t.Errorf("entry under %s decodes as %s", name, e.Data.Name.String())
		}
	}
}

// A restarted daemon's executor clock starts over at zero, so an
// insertion time kept in the writing process's clock means nothing to
// the next one. An object fetched 10 s before the previous process wrote
// it at t = 1 h, with a freshness of 1 s, must come back stale from a log
// reopened at t = 0; one written the moment it was fetched, with a
// freshness of 1 h and reopened right away, must come back fresh.
func TestFileTierReopenRebasesInsertionTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 0)
	for _, w := range []struct {
		name       string
		insertedAt time.Duration
		freshness  time.Duration
	}{
		{"/f/short", time.Hour - 10*time.Second, time.Second},
		{"/f/long", time.Hour, time.Hour},
	} {
		e := fileEntry(t, w.name)
		e.InsertedAt = w.insertedAt
		e.Data.Freshness = w.freshness
		if _, err := tier.Put(e, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openTier(t, path, 0)
	for _, want := range []struct {
		name  string
		stale bool
	}{{"/f/short", true}, {"/f/long", false}} {
		e, _, found := reopened.Peek(ndn.MustParseName(want.name), 0)
		if !found {
			t.Fatalf("%s lost on reopen", want.name)
		}
		if got := e.IsStale(0); got != want.stale {
			t.Errorf("%s stale = %t at t = 0 after reopen (inserted at %v), want %t", want.name, got, e.InsertedAt, want.stale)
		}
	}
}

func TestFileTierTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 0)
	if _, err := tier.Put(fileEntry(t, "/f/a"), 0); err != nil {
		t.Fatal(err)
	}
	intact := tier.Size()
	if _, err := tier.Put(fileEntry(t, "/f/b"), 0); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: cut the second record in half.
	torn := intact + (tier.Size()-intact)/2
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	reopened := openTier(t, path, 0)
	if got := reopened.Len(); got != 1 {
		t.Fatalf("reopened Len = %d, want 1 (torn record dropped)", got)
	}
	if reopened.Size() != intact {
		t.Errorf("log size = %d after recovery, want truncated to %d", reopened.Size(), intact)
	}
	if _, _, found := reopened.Peek(ndn.MustParseName("/f/a"), 0); !found {
		t.Error("intact record lost during tail recovery")
	}
	// The log must accept appends again after recovery.
	if _, err := reopened.Put(fileEntry(t, "/f/c"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, found := reopened.Peek(ndn.MustParseName("/f/c"), 0); !found {
		t.Error("post-recovery append not readable")
	}
}

func TestFileTierCorruptTailByteDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 0)
	if _, err := tier.Put(fileEntry(t, "/f/a"), 0); err != nil {
		t.Fatal(err)
	}
	intact := tier.Size()
	if _, err := tier.Put(fileEntry(t, "/f/b"), 0); err != nil {
		t.Fatal(err)
	}
	tier.Close()

	// Flip a payload byte in the last record: length intact, CRC wrong.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[intact+frameHeaderSize+1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := openTier(t, path, 0)
	if got := reopened.Len(); got != 1 {
		t.Fatalf("reopened Len = %d, want 1 (corrupt record dropped)", got)
	}
	if reopened.Size() != intact {
		t.Errorf("log size = %d, want %d (corrupt tail truncated)", reopened.Size(), intact)
	}
}

func TestFileTierCapacityEvictsOldest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 2)
	for _, name := range []string{"/f/a", "/f/b"} {
		if _, err := tier.Put(fileEntry(t, name), 0); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := tier.Put(fileEntry(t, "/f/c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Data.Name.String() != "/f/a" {
		t.Fatalf("evicted %v, want [/f/a]", evicted)
	}
	if got := tier.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	// Refresh keeps capacity accounting stable (no self-eviction).
	if evicted, err := tier.Put(fileEntry(t, "/f/c"), 0); err != nil || len(evicted) != 0 {
		t.Errorf("refresh evicted %v (err %v), want none", evicted, err)
	}
	tier.Close()

	// Eviction tombstones persist: /f/a stays gone after reopen.
	reopened := openTier(t, path, 2)
	if _, _, found := reopened.Peek(ndn.MustParseName("/f/a"), 0); found {
		t.Error("capacity-evicted entry resurrected on reopen")
	}
}

func TestFileTierBackedStoreServesAfterRAMEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cs.log")
	tier := openTier(t, path, 0)
	s := tieredStore(t, 1, tier)

	a := mkData(t, "/f/a")
	s.Insert(a, 0, 0)
	s.Insert(mkData(t, "/f/b"), time.Millisecond, 0) // /f/a demoted to the log

	e, servedBy, cost := lookupName(s, a.Name, 2*time.Millisecond)
	if e == nil {
		t.Fatal("file-tier entry not served")
	}
	if string(e.Data.Payload) != "payload-/f/a" {
		t.Errorf("payload = %q after log round trip", e.Data.Payload)
	}
	if servedBy != tierDisk || cost != 0 {
		t.Errorf("served from %v at %v, want disk tier at zero modeled cost", servedBy, cost)
	}
}

// A log written while the index was keyed by URI strings reopens with the
// same contents: the records are the same bytes, and a tombstone's URI
// parses back to the name it deletes. testdata/uri-index.log holds five
// puts (one name with escaped bytes, one with a 300-byte component), a
// refresh of /f/a and the removal of /f/d.
func TestFileTierReopensURIKeyedLog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "uri-index.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cs.log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tier := openTier(t, path, 0)
	if tier.Size() != int64(len(raw)) || tier.Len() != 4 {
		t.Fatalf("reopened %d of %d bytes holding %d objects, want all of it and 4", tier.Size(), len(raw), tier.Len())
	}
	long := "/f/" + strings.Repeat("l", 300)
	for uri, payload := range map[string]string{
		"/f/a":                  "payload-/f/a-refreshed",
		"/f/%00escaped%2Fslash": "payload-/f/%00escaped%2Fslash",
		"/f/private/c":          "payload-/f/private/c",
		long:                    "payload-" + long,
	} {
		e, _, found := tier.Peek(ndn.MustParseName(uri), 0)
		if !found {
			t.Errorf("%s lost on reopen", uri)
			continue
		}
		if e.Data.Name.String() != uri || string(e.Data.Payload) != payload {
			t.Errorf("%s reopened as %s holding %q", uri, e.Data.Name, e.Data.Payload)
		}
		if e.Data.IsPrivate() != strings.Contains(uri, "/private/") {
			t.Errorf("%s: private %t", uri, e.Data.IsPrivate())
		}
	}
	if _, _, found := tier.Peek(ndn.MustParseName("/f/d"), 0); found {
		t.Error("/f/d's tombstone did not survive reopen")
	}
	// The log ends with that tombstone, the bytes this code writes for it.
	if tomb := frameRecord(encodeTombstonePayload(ndn.MustParseName("/f/d").String())); !bytes.HasSuffix(raw, tomb) {
		t.Error("the tombstone for /f/d is not the bytes the log holds")
	}
}
