package fwd

import (
	"errors"
	"slices"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry/span"
)

// Consumer is an application endpoint that fetches content through a
// host forwarder and measures round-trip times — exactly what both
// honest users and the paper's adversary do.
type Consumer struct {
	fwd     *Forwarder
	faceID  table.FaceID
	pending map[string][]*pendingFetch
	// expire is c.timeout bound once, so arming a fetch's lifetime timer
	// allocates no closure.
	expire func(arg any)
}

type pendingFetch struct {
	key     string // this fetch's key in Consumer.pending
	sentAt  time.Duration
	done    bool
	handler func(FetchResult)
	// root is the fetch's open root span; nil when tracing is disabled.
	root *span.Record
}

// FetchResult reports the outcome of one fetch.
type FetchResult struct {
	// Data is the received content; nil on timeout. Its Payload and
	// Signature are the bytes the network carried, shared with every
	// other copy of the packet in flight: read them, copy them, but do
	// not modify them (see ndn.Data).
	Data *ndn.Data
	// RTT is the observed interest→data round-trip time.
	RTT time.Duration
	// TimedOut is true when the interest lifetime expired unanswered.
	TimedOut bool
}

// NewConsumer attaches a consumer application to the host forwarder.
func NewConsumer(host *Forwarder) (*Consumer, error) {
	if host == nil {
		return nil, errors.New("fwd: consumer requires a host forwarder")
	}
	c := &Consumer{
		fwd:     host,
		pending: make(map[string][]*pendingFetch),
	}
	c.expire = c.timeout
	c.faceID = host.AttachApp(c.deliver)
	return c, nil
}

// Face returns the consumer's application face on its host.
func (c *Consumer) Face() table.FaceID { return c.faceID }

// Fetch issues an interest and invokes handler exactly once: with the
// content and its RTT, or with TimedOut after the interest lifetime.
// A zero nonce is replaced with a random one, as in real NDN stacks —
// nonces must be unique across consumers or routers treat concurrent
// fetches as loops.
//
// All consumer state is touched inside executor callbacks, so Fetch is
// safe to call from any goroutine when the host runs on a real-time
// executor.
func (c *Consumer) Fetch(interest *ndn.Interest, handler func(FetchResult)) {
	c.fwd.schedule(0, netsim.EventApp, func() { c.fetch(interest, handler) })
}

// fetch runs inside the executor.
func (c *Consumer) fetch(interest *ndn.Interest, handler func(FetchResult)) {
	if interest.Nonce == 0 {
		cp := *interest
		cp.Nonce = c.fwd.Sim().Rand().Uint64()
		interest = &cp
	}
	sentAt := c.fwd.Sim().Now()
	key := interest.Name.Key()
	p := &pendingFetch{key: key, sentAt: sentAt, handler: handler}

	// Open the trace root: this interest's admission at the consumer.
	// The stamped copy propagates the context through the host
	// forwarder and everything it causes.
	if tr := c.fwd.tap.Tracer(); tr != nil {
		root, ctx := tr.StartRoot(interest.Name.Hash(), c.fwd.name, key, int64(sentAt))
		cp := *interest
		cp.TraceID, cp.SpanID = ctx.Trace, ctx.Span
		interest = &cp
		p.root = root
	}
	c.pending[key] = append(c.pending[key], p)

	lifetime := interest.Lifetime
	if lifetime <= 0 {
		lifetime = ndn.DefaultInterestLifetime
	}
	c.fwd.scheduleCall(lifetime, netsim.EventTimer, c.expire, p)
	c.fwd.SendInterest(c.faceID, interest)
}

// timeout is the lifetime timer of one fetch (arg is its
// *pendingFetch): an unanswered fetch leaves the pending set and
// reports TimedOut; an answered one has nothing left to do.
func (c *Consumer) timeout(arg any) {
	p := arg.(*pendingFetch)
	if p.done {
		return
	}
	p.done = true
	waiters := c.pending[p.key]
	if i := slices.Index(waiters, p); i >= 0 {
		waiters = slices.Delete(waiters, i, i+1)
	}
	if len(waiters) == 0 {
		delete(c.pending, p.key)
	} else {
		c.pending[p.key] = waiters
	}
	now := c.fwd.Sim().Now()
	c.fwd.tap.Tracer().End(p.root, int64(now), "timeout")
	p.handler(FetchResult{TimedOut: true, RTT: now - p.sentAt})
}

// FetchName is Fetch for a plain interest with the given name.
func (c *Consumer) FetchName(name ndn.Name, handler func(FetchResult)) {
	c.Fetch(ndn.NewInterest(name, 0), handler)
}

// FetchReliable fetches with up to retries re-expressed interests (fresh
// nonces) after timeouts — NDN's consumer-driven loss recovery, whose
// interaction with router caching motivates Section V-A.
func (c *Consumer) FetchReliable(interest *ndn.Interest, retries int, handler func(FetchResult, int)) {
	var attempt func(triesLeft, used int)
	attempt = func(triesLeft, used int) {
		cp := *interest
		cp.Nonce = 0 // fresh random nonce per attempt
		c.Fetch(&cp, func(res FetchResult) {
			if !res.TimedOut || triesLeft == 0 {
				handler(res, used)
				return
			}
			attempt(triesLeft-1, used+1)
		})
	}
	attempt(retries, 0)
}

func (c *Consumer) deliver(pkt any) {
	data, isData := pkt.(*ndn.Data)
	if !isData {
		return
	}
	now := c.fwd.Sim().Now()
	// Resolve every pending fetch whose name is a prefix of the data
	// name (the NDN matching rule).
	for k := 0; k <= data.Name.Len(); k++ {
		prefix := data.Name.Prefix(k)
		key := prefix.Key()
		waiters, found := c.pending[key]
		if !found || !data.MatchesName(prefix) {
			continue
		}
		for _, p := range waiters {
			if p.done {
				continue
			}
			p.done = true
			c.fwd.tap.Tracer().End(p.root, int64(now), "ok")
			p.handler(FetchResult{Data: data, RTT: now - p.sentAt})
		}
		delete(c.pending, key)
	}
}

// Producer is an application endpoint that publishes signed content under
// a prefix and answers interests for it.
type Producer struct {
	fwd    *Forwarder
	faceID table.FaceID
	prefix ndn.Name
	signer *ndn.Signer
	repo   *cache.Store
	// ResponseDelay models content-generation cost per interest.
	ResponseDelay time.Duration

	served uint64
}

// NewProducer attaches a producer application serving the given prefix
// on the host forwarder. signer may be nil for unsigned test content.
func NewProducer(host *Forwarder, prefix ndn.Name, signer *ndn.Signer) (*Producer, error) {
	if host == nil {
		return nil, errors.New("fwd: producer requires a host forwarder")
	}
	p := &Producer{
		fwd:    host,
		prefix: prefix,
		signer: signer,
		repo:   cache.MustNewStore(0, nil),
	}
	p.faceID = host.AttachApp(p.deliver)
	if err := host.RegisterPrefix(prefix, p.faceID); err != nil {
		return nil, err
	}
	return p, nil
}

// Face returns the producer's application face on its host.
func (p *Producer) Face() table.FaceID { return p.faceID }

// Prefix returns the registered prefix.
func (p *Producer) Prefix() ndn.Name { return p.prefix }

// Served returns how many interests the producer has answered.
func (p *Producer) Served() uint64 { return p.served }

// Publish signs (when a signer is configured) and stores content for
// future interests. Content outside the producer's prefix is rejected.
func (p *Producer) Publish(data *ndn.Data) error {
	if !p.prefix.IsPrefixOf(data.Name) {
		return errors.New("fwd: content name outside producer prefix")
	}
	if p.signer != nil {
		p.signer.Sign(data)
	}
	p.repo.Insert(data, p.fwd.Sim().Now(), 0)
	return nil
}

// PublishSegments segments, signs and stores a large object.
func (p *Producer) PublishSegments(base ndn.Name, payload []byte, segmentSize int, private bool) ([]*ndn.Data, error) {
	segs, err := ndn.Segment(base, payload, segmentSize, private)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if err := p.Publish(s); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

func (p *Producer) deliver(pkt any) {
	interest, isInterest := pkt.(*ndn.Interest)
	if !isInterest {
		return
	}
	entry, found := p.repo.Match(interest, p.fwd.Sim().Now())
	if !found {
		return // no such content; the interest times out downstream
	}
	p.served++
	// The answer is a header copy sharing the repository's payload (its
	// own deep copy, made at Publish). Answer under the requesting
	// interest's span context so the response leg joins the same trace,
	// and echo the host's PIT token so its satisfaction resolves by
	// direct table handle.
	data := *entry.Data
	data.TraceID, data.SpanID = interest.TraceID, interest.SpanID
	data.PITToken = interest.PITToken
	p.fwd.schedule(p.ResponseDelay, netsim.EventApp, func() {
		p.fwd.SendData(p.faceID, &data)
	})
}
