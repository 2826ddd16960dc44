package table

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

func interest(name string, nonce uint64) *ndn.Interest {
	return ndn.NewInterest(ndn.MustParseName(name), nonce)
}

func data(t *testing.T, name string) *ndn.Data {
	t.Helper()
	d, err := ndn.NewData(ndn.MustParseName(name), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// insert is the forwarder's admission sequence: one probe, then
// InsertProbed on it.
func insert(p *PIT, in *ndn.Interest, face FaceID, now time.Duration) InsertOutcome {
	pr := p.Probe(in.Name)
	outcome, _ := p.InsertProbed(in, face, now, &pr)
	return outcome
}

// satisfy is tokenless satisfaction, returning the awaiting faces (nil
// when nothing matched).
func satisfy(p *PIT, d *ndn.Data, now time.Duration) []FaceID {
	res, matched := p.SatisfyByToken(d, 0, now)
	if !matched {
		return nil
	}
	return res.Faces
}

// hasPending probes for exactly name the way the wire path does.
func hasPending(p *PIT, name ndn.Name, now time.Duration) bool {
	v, err := ndn.InterestNameView(ndn.EncodeInterest(ndn.NewInterest(name, 0)))
	if err != nil {
		panic(err)
	}
	return p.HasPending(v, now)
}

func TestPITInsertNew(t *testing.T) {
	p := NewPIT()
	if got := insert(p, interest("/a", 1), 10, 0); got != InsertedNew {
		t.Errorf("first insert = %v, want new", got)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
}

func TestPITAggregation(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/a", 1), 10, 0)
	if got := insert(p, interest("/a", 2), 20, 0); got != Aggregated {
		t.Errorf("second insert = %v, want aggregated", got)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1 (collapsed)", p.Len())
	}
	faces := satisfy(p, data(t, "/a"), 0)
	sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
	if len(faces) != 2 || faces[0] != 10 || faces[1] != 20 {
		t.Errorf("Satisfy = %v, want [10 20]", faces)
	}
}

func TestPITDuplicateNonce(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/a", 7), 10, 0)
	if got := insert(p, interest("/a", 7), 30, 0); got != DuplicateNonce {
		t.Errorf("looped interest = %v, want duplicate-nonce", got)
	}
}

func TestPITRetransmissionWithNewNonce(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/a", 7), 10, 0)
	if got := insert(p, interest("/a", 8), 10, 0); got != Aggregated {
		t.Errorf("retransmission with fresh nonce = %v, want aggregated", got)
	}
}

func TestPITSatisfyPrefixMatch(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/cnn/news", 1), 10, 0)
	faces := satisfy(p, data(t, "/cnn/news/2013may20"), 0)
	if len(faces) != 1 || faces[0] != 10 {
		t.Errorf("prefix satisfy = %v, want [10]", faces)
	}
	if p.Len() != 0 {
		t.Error("entry not consumed")
	}
}

func TestPITSatisfyMultipleEntries(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/cnn", 1), 10, 0)
	insert(p, interest("/cnn/news", 2), 20, 0)
	insert(p, interest("/cnn/sports", 3), 30, 0)
	faces := satisfy(p, data(t, "/cnn/news/today"), 0)
	sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
	if len(faces) != 2 || faces[0] != 10 || faces[1] != 20 {
		t.Errorf("Satisfy = %v, want [10 20]", faces)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1 (/cnn/sports still pending)", p.Len())
	}
}

func TestPITSatisfyNoMatch(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/cnn/news", 1), 10, 0)
	if faces := satisfy(p, data(t, "/bbc/news"), 0); faces != nil {
		t.Errorf("Satisfy = %v, want nil", faces)
	}
	if p.Len() != 1 {
		t.Error("non-matching data consumed an entry")
	}
}

func TestPITSatisfyDedupesFaces(t *testing.T) {
	p := NewPIT()
	insert(p, interest("/cnn", 1), 10, 0)
	insert(p, interest("/cnn/news", 2), 10, 0)
	faces := satisfy(p, data(t, "/cnn/news"), 0)
	if len(faces) != 1 || faces[0] != 10 {
		t.Errorf("Satisfy = %v, want deduped [10]", faces)
	}
}

func TestPITExpiry(t *testing.T) {
	p := NewPIT()
	i := interest("/a", 1)
	i.Lifetime = time.Second
	insert(p, i, 10, 0)
	if !hasPending(p, ndn.MustParseName("/a"), 500*time.Millisecond) {
		t.Error("entry missing before expiry")
	}
	if hasPending(p, ndn.MustParseName("/a"), time.Second) {
		t.Error("entry still pending at expiry")
	}
	if faces := satisfy(p, data(t, "/a"), 2*time.Second); faces != nil {
		t.Errorf("expired entry satisfied: %v", faces)
	}
}

func TestPITExpiredEntryReplaced(t *testing.T) {
	p := NewPIT()
	i := interest("/a", 1)
	i.Lifetime = time.Second
	insert(p, i, 10, 0)
	// After expiry a new interest with the *same* nonce is a fresh entry,
	// not a duplicate.
	if got := insert(p, interest("/a", 1), 20, 2*time.Second); got != InsertedNew {
		t.Errorf("insert after expiry = %v, want new", got)
	}
}

func TestPITExpireSweep(t *testing.T) {
	p := NewPIT()
	short := interest("/short", 1)
	short.Lifetime = time.Second
	long := interest("/long", 2)
	long.Lifetime = time.Minute
	insert(p, short, 1, 0)
	insert(p, long, 1, 0)
	if removed := p.Expire(2 * time.Second); removed != 1 {
		t.Errorf("Expire removed %d, want 1", removed)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
	if p.Expired() != 1 {
		t.Errorf("Expired = %d, want 1", p.Expired())
	}
}

func TestPITAggregationExtendsExpiry(t *testing.T) {
	p := NewPIT()
	first := interest("/a", 1)
	first.Lifetime = time.Second
	insert(p, first, 10, 0)
	second := interest("/a", 2)
	second.Lifetime = time.Second
	insert(p, second, 20, 800*time.Millisecond)
	if !hasPending(p, ndn.MustParseName("/a"), 1500*time.Millisecond) {
		t.Error("aggregation did not extend the entry lifetime")
	}
}

func TestPITZeroLifetimeDefaults(t *testing.T) {
	p := NewPIT()
	i := &ndn.Interest{Name: ndn.MustParseName("/a"), Nonce: 1} // Lifetime 0
	insert(p, i, 10, 0)
	if !hasPending(p, ndn.MustParseName("/a"), ndn.DefaultInterestLifetime-time.Millisecond) {
		t.Error("default lifetime not applied")
	}
}

func TestPITUnpredictableSuffixNotSatisfiedByPrefix(t *testing.T) {
	ss, err := ndn.NewSharedSecret([]byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	randName := ss.UnpredictableName(ndn.MustParseName("/alice/skype/0"), 1)
	d, err := ndn.NewData(randName, []byte("frame"))
	if err != nil {
		t.Fatal(err)
	}

	p := NewPIT()
	insert(p, interest("/alice/skype", 1), 10, 0)
	if faces := satisfy(p, d, 0); faces != nil {
		t.Errorf("rand-suffixed data satisfied prefix interest: %v", faces)
	}
	// But an exact-name interest is satisfied.
	insert(p, ndn.NewInterest(randName, 2), 20, 0)
	if faces := satisfy(p, d, 0); len(faces) != 1 || faces[0] != 20 {
		t.Errorf("exact interest not satisfied: %v", faces)
	}
}

func TestInsertOutcomeString(t *testing.T) {
	cases := map[InsertOutcome]string{
		InsertedNew:      "new",
		Aggregated:       "aggregated",
		DuplicateNonce:   "duplicate-nonce",
		RejectedFull:     "rejected-full",
		InsertOutcome(0): "unknown",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

func TestPITCapacityRejects(t *testing.T) {
	p := NewPIT()
	p.SetCapacity(2)
	if got := insert(p, interest("/a", 1), 1, 0); got != InsertedNew {
		t.Fatalf("first insert = %v", got)
	}
	if got := insert(p, interest("/b", 2), 1, 0); got != InsertedNew {
		t.Fatalf("second insert = %v", got)
	}
	if got := insert(p, interest("/c", 3), 1, 0); got != RejectedFull {
		t.Errorf("over-capacity insert = %v, want rejected-full", got)
	}
	if p.Rejected() != 1 {
		t.Errorf("Rejected = %d, want 1", p.Rejected())
	}
	// Aggregation on an existing name still works at capacity.
	if got := insert(p, interest("/a", 9), 2, 0); got != Aggregated {
		t.Errorf("aggregation at capacity = %v, want aggregated", got)
	}
	// Satisfying an entry frees room.
	satisfy(p, data(t, "/a"), 0)
	if got := insert(p, interest("/c", 4), 1, 0); got != InsertedNew {
		t.Errorf("insert after satisfy = %v, want new", got)
	}
}

func TestPITCapacityReclaimsExpired(t *testing.T) {
	p := NewPIT()
	p.SetCapacity(1)
	i := interest("/old", 1)
	i.Lifetime = time.Second
	insert(p, i, 1, 0)
	// At capacity, but the entry has expired: the new interest must be
	// admitted after reclamation.
	if got := insert(p, interest("/new", 2), 1, 2*time.Second); got != InsertedNew {
		t.Errorf("insert over expired entry = %v, want new", got)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
}

func TestPITSetCapacityNegativeMeansUnbounded(t *testing.T) {
	p := NewPIT()
	p.SetCapacity(-5)
	for i := 0; i < 100; i++ {
		if got := insert(p, interest(fmt.Sprintf("/n/%d", i), uint64(i+1)), 1, 0); got != InsertedNew {
			t.Fatalf("insert %d = %v", i, got)
		}
	}
}
