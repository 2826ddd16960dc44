package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/rt"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/trace"
)

// The ledger pass: every layer's public API driven in isolation with the
// workload's own names and payload size, one span per batch of calls so
// the two clock reads stay far below 2 % of a span. A layer's self time
// in a workload is then calls per op x ns per call; the sum over layers
// against the end-to-end cost per op is ledger.coverage, and what is
// missing is the cost no layer owns yet.

const (
	ledgerNames    = 8192 // distinct names a workload hands the ledger
	ledgerResident = 4096 // of which this many sit in the tables probed for hits
	ledgerBatch    = 2048 // calls per span
	ledgerBudget   = 30 * time.Millisecond
	ledgerMinSpans = 5
)

// layerCost is one isolated measurement.
type layerCost struct {
	ns     float64 // per call, median batch
	allocs float64 // per call, over all batches
}

// ledgerUse is one line of a workload's ledger: how often an op calls
// into the measured unit.
type ledgerUse struct {
	metric string // per-layer metric name without the _ns suffix
	calls  float64
	where  string
}

type ledger struct {
	rec    *spanRecorder
	parent int
	costs  map[string]layerCost
	order  []string
	sink   int // defeats dead-code elimination of measured calls
}

func newLedger(rec *spanRecorder, parent int) *ledger {
	return &ledger{rec: rec, parent: parent, costs: make(map[string]layerCost)}
}

// measure times fn(ledgerBatch) repeatedly; prep, when non-nil, runs
// untimed before each batch to restore the state fn consumes.
func (l *ledger) measure(name string, prep func(), fn func(n int)) {
	if prep != nil {
		prep()
	}
	fn(ledgerBatch) // warm caches, grow tables
	var perCall []float64
	var mallocs uint64
	var before, after runtime.MemStats
	started := time.Now()
	for len(perCall) < ledgerMinSpans || time.Since(started) < ledgerBudget {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		id := l.rec.begin(name, l.parent)
		fn(ledgerBatch)
		d := l.rec.end(id)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		perCall = append(perCall, float64(d.Nanoseconds())/ledgerBatch)
	}
	l.costs[name] = layerCost{ns: median(perCall), allocs: float64(mallocs) / float64(len(perCall)*ledgerBatch)}
	l.order = append(l.order, name)
}

// ledgerInput is what a workload hands the ledger pass.
type ledgerInput struct {
	seed         int64
	names        []ndn.Name // ledgerNames distinct names shaped like the workload's
	payloadBytes int
	manager      func() (core.CacheManager, error) // the workload's cache manager
	privateShare float64                           // share of resident entries marked private
}

// run measures every unit. It takes about two seconds.
func (l *ledger) run(in ledgerInput) error {
	if len(in.names) != ledgerNames {
		return fmt.Errorf("ledger wants %d names, got %d", ledgerNames, len(in.names))
	}
	names := in.names
	resident := names[:ledgerResident]
	payload := make([]byte, in.payloadBytes)
	fillPayload(payload, in.seed, 0)

	interests := make([]*ndn.Interest, len(names))
	interestWires := make([][]byte, len(names))
	datas := make([]*ndn.Data, len(names))
	dataWires := make([][]byte, len(names))
	for i, name := range names {
		interests[i] = ndn.NewInterest(name, uint64(i)+1)
		interestWires[i] = ndn.EncodeInterest(interests[i])
		d, err := ndn.NewData(name, payload)
		if err != nil {
			return err
		}
		d.Private = float64(i%100) < in.privateShare*100
		datas[i] = d
		dataWires[i] = ndn.EncodeData(d)
	}
	mask := len(names) - 1        // ledgerNames is a power of two
	resMask := len(resident) - 1  // so is ledgerResident
	const now = 10 * time.Second  // any fixed virtual time
	const face = table.FaceID(7)  // any downstream face
	const face2 = table.FaceID(8) // a second one, for aggregation

	// --- ndn ---
	l.measure("ndn.decode_interest", nil, func(n int) {
		for i := 0; i < n; i++ {
			p, err := ndn.DecodeInterest(interestWires[i&mask])
			if err != nil {
				panic(err)
			}
			l.sink += int(p.Nonce)
		}
	})
	l.measure("ndn.encode_interest", nil, func(n int) {
		for i := 0; i < n; i++ {
			l.sink += len(ndn.EncodeInterest(interests[i&mask]))
		}
	})
	l.measure("ndn.decode_data", nil, func(n int) {
		for i := 0; i < n; i++ {
			d, err := ndn.DecodeData(dataWires[i&mask])
			if err != nil {
				panic(err)
			}
			l.sink += len(d.Payload)
		}
	})
	l.measure("ndn.encode_data", nil, func(n int) {
		for i := 0; i < n; i++ {
			l.sink += len(ndn.EncodeData(datas[i&mask]))
		}
	})
	l.measure("ndn.wire_size_data", nil, func(n int) {
		for i := 0; i < n; i++ {
			l.sink += ndn.WireSize(datas[i&mask])
		}
	})
	l.measure("ndn.data_clone", nil, func(n int) {
		for i := 0; i < n; i++ {
			l.sink += len(datas[i&mask].Clone().Payload)
		}
	})
	l.measure("ndn.name_view", nil, func(n int) {
		for i := 0; i < n; i++ {
			v, err := ndn.InterestNameView(interestWires[i&mask])
			if err != nil {
				panic(err)
			}
			l.sink += v.Len()
		}
	})
	// The stream codec on an in-memory stream alternating Interest and
	// Data, as a face carrying requests one way and answers the other.
	var stream bytes.Buffer
	for i := 0; i < ledgerBatch; i++ {
		if i%2 == 0 {
			stream.Write(interestWires[i&mask])
		} else {
			stream.Write(dataWires[i&mask])
		}
	}
	streamBytes := stream.Bytes()
	var reader *ndn.PacketReader
	l.measure("ndn.stream_read", func() { reader = ndn.NewPacketReader(bytes.NewReader(streamBytes)) }, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := reader.Next(); err != nil {
				panic(err)
			}
		}
	})
	buffered := bufio.NewWriter(io.Discard)
	writer := ndn.NewPacketWriter(buffered)
	l.measure("ndn.stream_write", nil, func(n int) {
		for i := 0; i < n; i++ {
			pkt := ndn.Packet{Interest: interests[i&mask]}
			if i%2 == 1 {
				pkt = ndn.Packet{Data: datas[i&mask]}
			}
			if err := writer.Write(pkt); err != nil {
				panic(err)
			}
			if err := buffered.Flush(); err != nil {
				panic(err)
			}
		}
	})

	// --- pcct ---
	tbl := pcct.New(pcct.PolicyLRU)
	for i, name := range resident {
		tbl.AttachCS(tbl.Put(name), datas[i])
	}
	l.measure("pcct.probe_hit", nil, func(n int) {
		for i := 0; i < n; i++ {
			if p := tbl.Probe(resident[i&resMask]); p.Entry == nil {
				panic("pcct: resident name not found")
			}
		}
	})
	absent := names[ledgerResident:]
	l.measure("pcct.probe_miss", nil, func(n int) {
		for i := 0; i < n; i++ {
			if p := tbl.Probe(absent[i&resMask]); p.Entry != nil {
				panic("pcct: absent name found")
			}
		}
	})
	// Round-robin over twice the capacity: every insert is of a name
	// evicted half a cycle ago, and evicts the oldest.
	cursor := ledgerResident
	l.measure("pcct.insert_evict", nil, func(n int) {
		for i := 0; i < n; i++ {
			victim := tbl.CSVictim()
			tbl.DetachCS(victim)
			tbl.ReleaseIfEmpty(victim)
			tbl.AttachCS(tbl.Put(names[cursor&mask]), datas[cursor&mask])
			cursor++
		}
	})

	// --- cache ---
	store, err := cache.NewStore(ledgerResident, cache.NewLRU())
	if err != nil {
		return err
	}
	for i := range resident {
		store.Insert(datas[i], now, time.Millisecond)
	}
	l.measure("cache.exact_hit", nil, func(n int) {
		for i := 0; i < n; i++ {
			if _, found := store.Exact(resident[i&resMask], now); !found {
				panic("cache: resident name not found")
			}
		}
	})
	l.measure("cache.match_probed", nil, func(n int) {
		for i := 0; i < n; i++ {
			in := interests[i&resMask]
			p := store.ProbeName(in.Name)
			if _, found := store.MatchProbed(in, &p, now); !found {
				panic("cache: resident name not matched")
			}
		}
	})
	manager, err := in.manager()
	if err != nil {
		return err
	}
	entries := make([]*cache.Entry, len(resident))
	for i := range resident {
		entries[i], _ = store.Exact(resident[i], now)
	}
	l.measure("core.cm_decision", nil, func(n int) {
		for i := 0; i < n; i++ {
			l.sink += int(manager.OnCacheHit(entries[i&resMask], interests[i&resMask], now).Action)
		}
	})
	cursor = ledgerResident
	l.measure("cache.insert_evict", nil, func(n int) {
		for i := 0; i < n; i++ {
			store.Insert(datas[cursor&mask], now, time.Millisecond)
			cursor++
		}
	})

	// --- table ---
	pit := table.NewPIT()
	tokens := make([]uint64, ledgerBatch)
	drain := func() {
		for i := 0; i < ledgerBatch; i++ {
			pit.SatisfyByToken(datas[i], 0, now)
		}
	}
	insertAll := func() {
		drain()
		for i := 0; i < ledgerBatch; i++ {
			pr := pit.Probe(names[i])
			_, tokens[i] = pit.InsertProbed(interests[i], face, now, &pr)
		}
	}
	l.measure("table.pit_insert_probed", drain, func(n int) {
		for i := 0; i < n; i++ {
			pr := pit.Probe(names[i])
			if outcome, _ := pit.InsertProbed(interests[i], face, now, &pr); outcome != table.InsertedNew {
				panic("pit: " + outcome.String())
			}
		}
	})
	second := make([]*ndn.Interest, ledgerBatch)
	for i := range second {
		second[i] = ndn.NewInterest(names[i], uint64(len(names)+i)+1)
	}
	l.measure("table.pit_aggregate", insertAll, func(n int) {
		for i := 0; i < n; i++ {
			pr := pit.Probe(names[i])
			if outcome, _ := pit.InsertProbed(second[i], face2, now, &pr); outcome != table.Aggregated {
				panic("pit: " + outcome.String())
			}
		}
	})
	l.measure("table.pit_satisfy_token", insertAll, func(n int) {
		for i := 0; i < n; i++ {
			if _, matched := pit.SatisfyByToken(datas[i], tokens[i], now); !matched {
				panic("pit: pending name not satisfied")
			}
		}
	})
	fib := table.NewFIB()
	for _, prefix := range []string{producerPrefix.String(), "/web", "/a", "/a/b", "/a/b/c", "/video", "/mail", "/news"} {
		if err := fib.Insert(ndn.MustParseName(prefix), face); err != nil {
			return err
		}
	}
	l.measure("table.fib_lookup", nil, func(n int) {
		for i := 0; i < n; i++ {
			hops, err := fib.Lookup(names[i&mask])
			if err != nil {
				panic(err)
			}
			l.sink += len(hops)
		}
	})

	// --- fwd: one router on a FIFO executor, so no event heap is priced in ---
	if err := l.measureFwd(in, interests, interestWires, datas); err != nil {
		return err
	}

	// --- netsim ---
	sim := netsim.New(in.seed)
	noop := func() {}
	l.measure("netsim.schedule_step", nil, func(n int) {
		// Two events pending at most, like the chain workloads.
		for i := 0; i < n; i += 2 {
			sim.ScheduleTagged(time.Millisecond, netsim.EventForward, noop)
			sim.ScheduleTagged(2*time.Millisecond, netsim.EventTimer, noop)
			sim.Run()
		}
	})
	link, err := netsim.NewLink(sim, netsim.LinkConfig{Latency: netsim.Fixed(time.Millisecond)})
	if err != nil {
		return err
	}
	delivered := 0
	link.Port(1).SetHandler(func(any) { delivered++ })
	l.measure("netsim.link_send", nil, func(n int) {
		for i := 0; i < n; i++ {
			link.Port(0).Send(datas[i&mask], len(dataWires[i&mask]))
			sim.Run()
		}
	})
	l.sink += delivered

	// --- rt ---
	l.measureRT(in.seed)

	// --- trace ---
	gen, err := trace.NewGenerator(trace.DefaultGeneratorConfig(in.seed, replayRequests))
	if err != nil {
		return err
	}
	l.measure("trace.generator_next", gen.Reset, func(n int) {
		for i := 0; i < n; i++ {
			req, _ := gen.Next()
			l.sink += req.Object
		}
	})
	zipf, err := trace.NewZipf(int(2.5*replayRequests), 0.8)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(in.seed))
	l.measure("trace.zipf_sample", nil, func(n int) {
		for i := 0; i < n; i++ {
			l.sink += zipf.Sample(rng)
		}
	})
	return nil
}

// fifoExecutor is the trivial fwd.Executor the ledger runs a router on:
// callbacks run in scheduling order, delays are ignored, time is a
// counter. It prices the forwarding pipeline without netsim's heap.
type fifoExecutor struct {
	queue []func()
	now   time.Duration
	rng   *rand.Rand
}

func (e *fifoExecutor) Now() time.Duration { return e.now }
func (e *fifoExecutor) Rand() *rand.Rand   { return e.rng }
func (e *fifoExecutor) Schedule(_ time.Duration, fn func()) {
	e.queue = append(e.queue, fn)
}

func (e *fifoExecutor) drain() {
	for i := 0; i < len(e.queue); i++ {
		e.now += time.Microsecond
		e.queue[i]()
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
}

func (l *ledger) measureFwd(in ledgerInput, interests []*ndn.Interest, interestWires [][]byte, datas []*ndn.Data) error {
	exec := &fifoExecutor{rng: rand.New(rand.NewSource(in.seed))}
	manager, err := in.manager()
	if err != nil {
		return err
	}
	store, err := cache.NewStore(ledgerResident, cache.NewLRU())
	if err != nil {
		return err
	}
	router, err := fwd.New(fwd.Config{Name: "L", Sim: exec, Store: store, Manager: manager})
	if err != nil {
		return err
	}
	var downData, upInterests int
	var lastUp *ndn.Interest
	_, injectDown := router.AttachCustom(func(pkt any, _ int) {
		if _, isData := pkt.(*ndn.Data); isData {
			downData++
		}
	})
	upFace, injectUp := router.AttachCustom(func(pkt any, _ int) {
		if interest, isInterest := pkt.(*ndn.Interest); isInterest {
			upInterests++
			lastUp = interest
		}
	})
	if err := router.RegisterPrefix(ndn.Name{}, upFace); err != nil {
		return err
	}
	mask, resMask := len(interests)-1, ledgerResident-1
	// Fill the store through the pipeline itself.
	miss := func(i int) {
		injectDown(interests[i&mask])
		exec.drain()
		answer := *datas[i&mask]
		answer.PITToken = lastUp.PITToken
		injectUp(&answer)
		exec.drain()
	}
	for i := 0; i < ledgerResident; i++ {
		miss(i)
	}
	const now = time.Hour // ProbeWire only compares it with freshness, which is unset
	l.measure("fwd.probe_wire", nil, func(n int) {
		for i := 0; i < n; i++ {
			if cached, _ := router.ProbeWire(interestWires[i&resMask], now); !cached {
				panic("fwd: resident name not cached")
			}
		}
	})
	nonce := uint64(1) << 32
	l.measure("fwd.hit_pipeline", nil, func(n int) {
		for i := 0; i < n; i++ {
			nonce++
			probe := *interests[i&resMask]
			probe.Nonce = nonce
			injectDown(&probe)
			exec.drain()
		}
	})
	// Round-robin past the store's capacity: every fetch misses, goes
	// upstream, and its answer is cached in place of the oldest entry.
	cursor := ledgerResident
	l.measure("fwd.miss_pipeline", nil, func(n int) {
		for i := 0; i < n; i++ {
			miss(cursor)
			cursor++
		}
	})
	if downData == 0 || upInterests == 0 {
		return fmt.Errorf("fwd ledger: router sent %d data down and %d interests up", downData, upInterests)
	}
	stats := router.Stats()
	if stats.Unsolicited != 0 || stats.NoRouteDropped != 0 || stats.DuplicatesDropped != 0 {
		return fmt.Errorf("fwd ledger: router dropped packets: %+v", stats)
	}
	return nil
}

// measureRT prices the wall-clock executor: how long a zero-delay
// callback waits to start, and how late a 200 µs timer fires.
func (l *ledger) measureRT(seed int64) {
	exec := rt.New(seed)
	defer exec.Close()
	done := make(chan time.Duration)
	const calls = 256 // each is a timer wake-up, microseconds not nanoseconds
	var waits []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for batch := 0; batch < ledgerMinSpans; batch++ {
		var total time.Duration
		id := l.rec.begin("rt.schedule0", l.parent)
		for i := 0; i < calls; i++ {
			scheduled := time.Now()
			exec.Schedule(0, func() { done <- time.Since(scheduled) })
			total += <-done
		}
		l.rec.end(id)
		waits = append(waits, float64(total.Nanoseconds())/calls)
	}
	runtime.ReadMemStats(&after)
	l.costs["rt.schedule0"] = layerCost{ns: median(waits), allocs: float64(after.Mallocs-before.Mallocs) / (ledgerMinSpans * calls)}
	l.order = append(l.order, "rt.schedule0")

	const delay = 200 * time.Microsecond
	var late []float64
	id := l.rec.begin("rt.timer_lateness", l.parent)
	for i := 0; i < 200; i++ {
		scheduled := time.Now()
		exec.Schedule(delay, func() { done <- time.Since(scheduled) })
		late = append(late, float64((<-done - delay).Nanoseconds()))
	}
	l.rec.end(id)
	l.costs["rt.timer_lateness"] = layerCost{ns: median(late)}
	l.order = append(l.order, "rt.timer_lateness")
}

// values turns the measurements into per-layer metrics.
func (l *ledger) values(into map[string]float64) {
	for name, cost := range l.costs {
		switch name {
		case "rt.timer_lateness":
			into["rt.timer_lateness_p50_us"] = cost.ns / 1e3
			continue
		}
		into[name+"_ns"] = cost.ns
		if hasAllocsTwin(name) {
			into[name+"_allocs"] = cost.allocs
		}
	}
}

// hasAllocsTwin reports whether the spec lists <name>_allocs.
func hasAllocsTwin(name string) bool {
	for _, spec := range perLayer {
		if spec.Name == name+"_allocs" {
			return true
		}
	}
	return false
}

// coverage sums the workload's uses and divides by the end-to-end cost
// per op.
func (l *ledger) coverage(uses []ledgerUse, endToEndNS float64) float64 {
	if endToEndNS <= 0 {
		return 0
	}
	sum := 0.0
	for _, u := range uses {
		sum += u.calls * l.costs[u.metric].ns
	}
	return sum / endToEndNS
}

// render writes the ledger as Markdown: every isolated measurement, then
// the workload's own decomposition.
func (l *ledger) render(workload string, uses []ledgerUse, endToEndNS float64, denominator string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Layer ledger — %s\n\n", workload)
	b.WriteString("Isolated cost of each unit, driven through its public API with this workload's names and payload size.\n\n")
	b.WriteString("| unit | ns/call | allocs/call |\n|---|---:|---:|\n")
	for _, name := range l.order {
		c := l.costs[name]
		fmt.Fprintf(&b, "| `%s` | %.1f | %.2f |\n", name, c.ns, c.allocs)
	}
	fmt.Fprintf(&b, "\n## Where one op goes\n\nSelf time = calls per op x ns per call. End to end: %.0f ns per op (%s).\n\n", endToEndNS, denominator)
	b.WriteString("| unit | calls/op | self ns/op | share | where |\n|---|---:|---:|---:|---|\n")
	sorted := append([]ledgerUse(nil), uses...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].calls*l.costs[sorted[i].metric].ns > sorted[j].calls*l.costs[sorted[j].metric].ns
	})
	sum := 0.0
	for _, u := range sorted {
		self := u.calls * l.costs[u.metric].ns
		sum += self
		fmt.Fprintf(&b, "| `%s` | %.3f | %.0f | %.1f%% | %s |\n", u.metric, u.calls, self, 100*self/endToEndNS, u.where)
	}
	fmt.Fprintf(&b, "| **attributed** | | **%.0f** | **%.1f%%** | `ledger.coverage` |\n", sum, 100*sum/endToEndNS)
	fmt.Fprintf(&b, "| unattributed | | %.0f | %.1f%% | endpoints, closures, packet copies, scheduler, sockets |\n", endToEndNS-sum, 100*(endToEndNS-sum)/endToEndNS)
	return b.String()
}
