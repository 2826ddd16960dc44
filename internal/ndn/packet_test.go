package ndn

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestNewInterestDefaults(t *testing.T) {
	i := NewInterest(MustParseName("/cnn/news"), 42)
	if i.Scope != ScopeUnlimited {
		t.Errorf("Scope = %d, want unlimited", i.Scope)
	}
	if i.Lifetime != DefaultInterestLifetime {
		t.Errorf("Lifetime = %v, want %v", i.Lifetime, DefaultInterestLifetime)
	}
	if i.Privacy != PrivacyUnmarked {
		t.Errorf("Privacy = %v, want unmarked", i.Privacy)
	}
}

func TestInterestWithScopeCopies(t *testing.T) {
	orig := NewInterest(MustParseName("/a"), 1)
	scoped := orig.WithScope(ScopeNextHop)
	if orig.Scope != ScopeUnlimited {
		t.Error("WithScope mutated original")
	}
	if scoped.Scope != ScopeNextHop {
		t.Errorf("scoped.Scope = %d, want %d", scoped.Scope, ScopeNextHop)
	}
}

func TestInterestWithPrivacyCopies(t *testing.T) {
	orig := NewInterest(MustParseName("/a"), 1)
	private := orig.WithPrivacy(PrivacyRequested)
	if orig.Privacy != PrivacyUnmarked {
		t.Error("WithPrivacy mutated original")
	}
	if private.Privacy != PrivacyRequested {
		t.Errorf("private.Privacy = %v, want requested", private.Privacy)
	}
}

func TestPrivacyString(t *testing.T) {
	cases := map[Privacy]string{
		PrivacyUnmarked:  "unmarked",
		PrivacyRequested: "requested",
		PrivacyDeclined:  "declined",
		Privacy(99):      "privacy(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Privacy(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestNewDataRequiresPayload(t *testing.T) {
	if _, err := NewData(MustParseName("/x"), nil); !errors.Is(err, ErrNoPayload) {
		t.Errorf("NewData with nil payload: err = %v, want ErrNoPayload", err)
	}
}

func TestNewDataCopiesPayload(t *testing.T) {
	buf := []byte("hello")
	d, err := NewData(MustParseName("/x"), buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 'J'
	if string(d.Payload) != "hello" {
		t.Errorf("NewData aliased caller buffer: %q", d.Payload)
	}
}

func TestDataIsPrivate(t *testing.T) {
	viaBit, _ := NewData(MustParseName("/bob/x"), []byte("p"))
	viaBit.Private = true
	if !viaBit.IsPrivate() {
		t.Error("privacy bit not honored")
	}
	viaName, _ := NewData(MustParseName("/bob/private/x"), []byte("p"))
	if !viaName.IsPrivate() {
		t.Error("reserved /private/ component not honored")
	}
	public, _ := NewData(MustParseName("/bob/x"), []byte("p"))
	if public.IsPrivate() {
		t.Error("unmarked content reported private")
	}
}

func TestDataMatchesPrefixRule(t *testing.T) {
	d, _ := NewData(MustParseName("/cnn/news/2013may20"), []byte("x"))
	if !d.Matches(NewInterest(MustParseName("/cnn/news"), 1)) {
		t.Error("prefix interest should match")
	}
	if !d.Matches(NewInterest(MustParseName("/cnn/news/2013may20"), 1)) {
		t.Error("exact interest should match")
	}
	if d.Matches(NewInterest(MustParseName("/cnn/sports"), 1)) {
		t.Error("non-prefix interest matched")
	}
}

func TestDataMatchesUnpredictableSuffixRule(t *testing.T) {
	// Footnote 5: content with a rand suffix must not satisfy interests
	// for a shorter prefix, even though it is a longest-prefix match.
	ss, err := NewSharedSecret([]byte("alice-and-bob"))
	if err != nil {
		t.Fatal(err)
	}
	name := ss.UnpredictableName(MustParseName("/alice/skype/0"), 7)
	d, _ := NewData(name, []byte("frame"))
	if d.Matches(NewInterest(MustParseName("/alice/skype"), 1)) {
		t.Error("rand-suffixed content served to prefix interest")
	}
	if !d.Matches(NewInterest(name, 1)) {
		t.Error("rand-suffixed content not served to exact interest")
	}
}

func TestDataClone(t *testing.T) {
	d, _ := NewData(MustParseName("/x"), []byte("payload"))
	d.Signature = []byte{1, 2, 3}
	d.Freshness = time.Second
	cp := d.Clone()
	cp.Payload[0] = 'X'
	cp.Signature[0] = 9
	if d.Payload[0] == 'X' || d.Signature[0] == 9 {
		t.Error("Clone shares buffers with original")
	}
	if &cp.Name.value[0] == &d.Name.value[0] {
		t.Error("Clone shares the name's bytes with original")
	}
	if cp.Freshness != d.Freshness || !cp.Name.Equal(d.Name) {
		t.Error("Clone dropped scalar fields")
	}
}

func TestStringers(t *testing.T) {
	i := NewInterest(MustParseName("/a/b"), 0xbeef).WithScope(2)
	if got := i.String(); got == "" {
		t.Error("Interest.String empty")
	}
	d, _ := NewData(MustParseName("/a/b"), []byte("zz"))
	if got := d.String(); got == "" {
		t.Error("Data.String empty")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 100) // 1000 bytes
	base := MustParseName("/youtube/alice/video-749.avi")
	segs, err := Segment(base, payload, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8; len(segs) != want {
		t.Fatalf("got %d segments, want %d", len(segs), want)
	}
	for i, s := range segs {
		if !s.Private {
			t.Errorf("segment %d lost the privacy bit", i)
		}
		gotBase, seq, ok := ParseSegment(s.Name)
		if !ok || !gotBase.Equal(base) || seq != uint64(i) {
			t.Errorf("segment %d name = %q", i, s.Name)
		}
	}
	back, err := Reassemble(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Error("reassembled payload differs")
	}
}

func TestSegmentExactMultiple(t *testing.T) {
	segs, err := Segment(MustParseName("/v"), make([]byte, 256), 128, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Errorf("256B/128B: got %d segments, want 2", len(segs))
	}
}

func TestSegmentRejectsBadArgs(t *testing.T) {
	if _, err := Segment(MustParseName("/v"), []byte("x"), 0, false); err == nil {
		t.Error("zero segment size accepted")
	}
	if _, err := Segment(MustParseName("/v"), nil, 10, false); !errors.Is(err, ErrNoPayload) {
		t.Errorf("empty payload: err = %v, want ErrNoPayload", err)
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	payload := []byte("abcdefghij")
	segs, err := Segment(MustParseName("/v"), payload, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	back, err := Reassemble(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Errorf("out-of-order reassembly = %q, want %q", back, payload)
	}
}

func TestReassembleDetectsGap(t *testing.T) {
	segs, err := Segment(MustParseName("/v"), make([]byte, 100), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	gappy := append(segs[:3:3], segs[4:]...)
	if _, err := Reassemble(gappy); !errors.Is(err, ErrSegmentGap) {
		t.Errorf("gap: err = %v, want ErrSegmentGap", err)
	}
}

func TestReassembleRejectsNonSegmentNames(t *testing.T) {
	d, _ := NewData(MustParseName("/not-a-segment"), []byte("x"))
	if _, err := Reassemble([]*Data{d}); err == nil {
		t.Error("non-segment name accepted")
	}
}

func TestParseSegmentNonNumeric(t *testing.T) {
	if _, _, ok := ParseSegment(MustParseName("/v/notanumber")); ok {
		t.Error("non-numeric final component parsed as segment")
	}
	if _, _, ok := ParseSegment(MustParseName("/")); ok {
		t.Error("root name parsed as segment")
	}
}
