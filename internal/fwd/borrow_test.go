package fwd

import (
	"bytes"
	"testing"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
)

// An interest injected through a custom face may be borrowed: its name
// aliases a receive buffer that is overwritten as soon as inject returns.
// What outlives the call must not see that: the PIT entry it creates
// (satisfied by name when the Data comes back) and the producer
// application on the same node, which gets the interest a processing
// delay later. The fetch still completes, under the right name.
func TestBorrowedInterestOutlivesItsBuffer(t *testing.T) {
	sim := netsim.New(1)
	router, err := NewRouter(sim, "R", 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, mustProducer(t, router, "/p"), "/p/obj", false)

	var answers []*ndn.Data
	_, inject := router.AttachCustom(func(pkt any, _ int) {
		if d, isData := pkt.(*ndn.Data); isData {
			answers = append(answers, d)
		}
	})
	wire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/p/obj"), 9))
	sim.Schedule(0, func() {
		name, err := ndn.InterestNameView(wire)
		if err != nil {
			t.Fatal(err)
		}
		inject(&ndn.Interest{Name: name, Nonce: 9, Lifetime: ndn.DefaultInterestLifetime})
		copy(wire, bytes.Repeat([]byte{0xA5}, len(wire)))
	})
	sim.Run()

	if len(answers) != 1 || !answers[0].Name.Equal(ndn.MustParseName("/p/obj")) {
		t.Fatalf("answers %v, want one Data for /p/obj", answers)
	}
	if s := router.Stats(); s.Forwarded != 1 || s.Unsolicited != 0 {
		t.Errorf("forwarded %d, unsolicited %d: want the producer's answer to satisfy the PIT", s.Forwarded, s.Unsolicited)
	}
}

func mustProducer(t *testing.T, host *Forwarder, prefix string) *Producer {
	t.Helper()
	p, err := NewProducer(host, ndn.MustParseName(prefix), nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
