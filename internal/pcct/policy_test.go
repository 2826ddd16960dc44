package pcct

import (
	"testing"

	"ndnprivacy/internal/ndn"
)

// These tests pin the intrusive policies to the exact semantics of the
// string-keyed container/list policies they replaced: the store-level
// eviction tests in internal/cache and the differential property test
// both depend on victim selection being bit-identical.

func insertCS(tb *Table, uri string) *Entry {
	e := tb.Put(ndn.MustParseName(uri))
	tb.AttachCS(e, uri)
	return e
}

func evict(tb *Table) string {
	v := tb.CSVictim()
	if v == nil {
		return ""
	}
	uri := v.Name().String()
	tb.DetachCS(v)
	tb.ReleaseIfEmpty(v)
	return uri
}

func TestLRUOrder(t *testing.T) {
	tb := New(PolicyLRU)
	insertCS(tb, "/a")
	insertCS(tb, "/b")
	insertCS(tb, "/c")
	tb.CSAccess(tb.Get(ndn.MustParseName("/a")))
	if v := tb.CSVictim(); v.Name().String() != "/b" {
		t.Fatalf("victim = %s, want /b", v.Name().String())
	}
	b := tb.Get(ndn.MustParseName("/b"))
	tb.DetachCS(b)
	tb.ReleaseIfEmpty(b)
	if v := tb.CSVictim(); v.Name().String() != "/c" {
		t.Fatalf("victim after removing /b = %s, want /c", v.Name().String())
	}
	if got := evict(tb); got != "/c" {
		t.Fatalf("evicted %s, want /c", got)
	}
	if got := evict(tb); got != "/a" {
		t.Fatalf("evicted %s, want /a", got)
	}
	if tb.CSVictim() != nil {
		t.Fatal("empty table reported a victim")
	}
}

func TestLRUReinsertMovesToFront(t *testing.T) {
	tb := New(PolicyLRU)
	a := insertCS(tb, "/a")
	insertCS(tb, "/b")
	tb.CSRefresh(a) // re-insert of existing content
	if v := tb.CSVictim(); v.Name().String() != "/b" {
		t.Fatalf("victim = %s, want /b", v.Name().String())
	}
}

func TestFIFOIgnoresAccess(t *testing.T) {
	tb := New(PolicyFIFO)
	a := insertCS(tb, "/a")
	insertCS(tb, "/b")
	tb.CSAccess(a)
	if v := tb.CSVictim(); v.Name().String() != "/a" {
		t.Fatalf("victim = %s, want /a (FIFO ignores access)", v.Name().String())
	}
}

func TestFIFOReinsertKeepsPosition(t *testing.T) {
	tb := New(PolicyFIFO)
	a := insertCS(tb, "/a")
	insertCS(tb, "/b")
	tb.CSRefresh(a)
	if v := tb.CSVictim(); v.Name().String() != "/a" {
		t.Fatalf("victim = %s, want /a (FIFO re-insert keeps position)", v.Name().String())
	}
	tb.DetachCS(a)
	tb.ReleaseIfEmpty(a)
	if v := tb.CSVictim(); v.Name().String() != "/b" {
		t.Fatalf("victim = %s, want /b", v.Name().String())
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	tb := New(PolicyLFU)
	hot := insertCS(tb, "/hot")
	insertCS(tb, "/cold")
	tb.CSAccess(hot)
	tb.CSAccess(hot)
	if v := tb.CSVictim(); v.Name().String() != "/cold" {
		t.Fatalf("victim = %s, want /cold", v.Name().String())
	}
}

func TestLFUTieBreaksByLeastRecency(t *testing.T) {
	tb := New(PolicyLFU)
	insertCS(tb, "/first")
	insertCS(tb, "/second")
	// Same frequency: the earlier-touched entry is evicted first.
	if v := tb.CSVictim(); v.Name().String() != "/first" {
		t.Fatalf("victim = %s, want /first", v.Name().String())
	}
}

func TestLFURemoveCleansBuckets(t *testing.T) {
	tb := New(PolicyLFU)
	a := insertCS(tb, "/a")
	tb.CSAccess(a)
	tb.DetachCS(a)
	tb.ReleaseIfEmpty(a)
	if tb.CSVictim() != nil {
		t.Fatal("empty LFU reported a victim")
	}
	// The freed buckets must be reusable without corruption.
	insertCS(tb, "/b")
	b := tb.Get(ndn.MustParseName("/b"))
	tb.CSAccess(b)
	tb.CSAccess(b)
	insertCS(tb, "/c")
	if v := tb.CSVictim(); v.Name().String() != "/c" {
		t.Fatalf("victim = %s, want /c", v.Name().String())
	}
}

func TestLFUReinsertCountsAsAccess(t *testing.T) {
	tb := New(PolicyLFU)
	a := insertCS(tb, "/a")
	insertCS(tb, "/b")
	tb.CSRefresh(a) // refresh bumps frequency
	if v := tb.CSVictim(); v.Name().String() != "/b" {
		t.Fatalf("victim = %s, want /b (re-insert counts as access)", v.Name().String())
	}
}

func TestLFUBucketMigration(t *testing.T) {
	tb := New(PolicyLFU)
	a := insertCS(tb, "/a")
	b := insertCS(tb, "/b")
	c := insertCS(tb, "/c")
	// Drive distinct frequencies: a→3, b→2, c→1.
	tb.CSAccess(a)
	tb.CSAccess(a)
	tb.CSAccess(b)
	want := []string{"/c", "/b", "/a"}
	for _, w := range want {
		if got := evict(tb); got != w {
			t.Fatalf("eviction order: got %s, want %s", got, w)
		}
	}
	_ = c
}
