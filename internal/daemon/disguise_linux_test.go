package daemon

import (
	"fmt"
	"sort"
	"syscall"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

// requireTimerfd skips — it does not pass — where the kernel refuses a
// timerfd: rt then sleeps on runtime timers, which Linux quantises to
// milliseconds, and a replayed sub-millisecond delay cannot be honoured.
func requireTimerfd(t *testing.T) {
	t.Helper()
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, 0, 0)
	if errno != 0 {
		t.Skipf("timerfd_create: %v: rt runs on its portable alarm here, so disguised hits are a timer tick late", errno)
	}
	syscall.Close(int(fd))
}

func medianRTT(rtts []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), rtts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// TestDisguisedHitCostsTheMissItReplays is the paper's content-specific
// delay (Section V-B) measured where the adversary measures it, at the
// consumer's end of a TCP connection to a started daemon with the delay
// manager ndnd runs by default: a private cache hit must take as long as
// the miss it imitates. Over loopback that miss is a fraction of a
// millisecond, so the router's executor has to honour a deadline that
// close — on a runtime timer the disguised hit is ≈ 1 ms slower than a
// miss and stands out more than the plain hit it hides.
func TestDisguisedHitCostsTheMissItReplays(t *testing.T) {
	requireTimerfd(t)
	const probes = 64
	var publish []*ndn.Data
	for i := 0; i < probes; i++ {
		publish = append(publish,
			mustData(t, fmt.Sprintf("/cnn/public/%d", i), make([]byte, 1024)),
			mustData(t, fmt.Sprintf("/cnn/private/%d", i), make([]byte, 1024)))
	}
	prefix := ndn.MustParseName("/cnn")
	up := newUpstream(t, prefix, publish...)
	d := startDaemon(t, Config{
		Listen:   "127.0.0.1:0",
		Capacity: 4096,
		Manager:  "delay",
		Routes:   []Route{{Prefix: prefix, Addr: up.addr}},
	})
	consumer := dialConsumer(t, newHost(t, "consumer"), d.Addr().String(), prefix)

	rtt := func(name string) time.Duration {
		t.Helper()
		return fetch(t, consumer, name).RTT
	}
	// Each name is fetched twice in a row: the first fetch is a miss, the
	// second is served by the router — at once for public content, after
	// the replayed miss delay for private content.
	var miss, hit, disguised []time.Duration
	for i := 0; i < probes; i++ {
		public, private := fmt.Sprintf("/cnn/public/%d", i), fmt.Sprintf("/cnn/private/%d", i)
		miss = append(miss, rtt(public))
		hit = append(hit, rtt(public))
		miss = append(miss, rtt(private))
		disguised = append(disguised, rtt(private))
	}
	if served := up.served(t); served != 2*probes {
		t.Fatalf("producer served %d interests, want %d: second fetches were not answered from the cache", served, 2*probes)
	}

	hitRTT, disguisedRTT, missRTT := medianRTT(hit), medianRTT(disguised), medianRTT(miss)
	t.Logf("median RTT: hit %v, disguised hit %v, miss %v", hitRTT, disguisedRTT, missRTT)
	if disguisedRTT <= hitRTT {
		t.Errorf("median disguised hit %v is not above median hit %v: private hits are not delayed", disguisedRTT, hitRTT)
	}
	if gap := (disguisedRTT - missRTT).Abs(); gap > 500*time.Microsecond {
		t.Errorf("median disguised hit %v is %v from median miss %v, want within 500µs: the delay tells them apart", disguisedRTT, gap, missRTT)
	}
}
