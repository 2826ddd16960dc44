package fwd

import (
	"errors"
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
	fwd    *Forwarder
	faceID table.FaceID
	// pending maps a name to its first unanswered fetch; later fetches of
	// the same name chain behind it through next, in registration order.
	pending ndn.NameMap[*pendingFetch]
	// start and expire are c.fetch and c.timeout bound once, so entering
	// the executor and arming a fetch's lifetime timer allocate no
	// closure.
	start, expire func(arg any)
}

// pendingFetch is one fetch from Fetch to its answer or timeout, and
// the only allocation the consumer makes for it.
type pendingFetch struct {
	// interest is the fetch's own copy of the caller's interest, which
	// the executor stamps (nonce, span context) and sends.
	interest ndn.Interest
	sentAt   time.Duration
	done     bool
	handler  func(FetchResult)
	// root is the fetch's open root span; nil when tracing is disabled.
	root *span.Record
	// next is the fetch registered after this one under the same name.
	next *pendingFetch
}

// FetchResult reports the outcome of one fetch.
type FetchResult struct {
	// Data is the received content; nil on timeout. Its Payload and
	// Signature are the bytes the network carried, shared with every
	// other copy of the packet in flight or cached: read them, copy them,
	// but do not modify them (see ndn.Data).
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
	c := &Consumer{fwd: host}
	c.start, c.expire = c.fetch, c.timeout
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
// Fetch copies the interest, so the caller may reuse it on return. All
// consumer state is touched inside executor callbacks, so Fetch is safe
// to call from any goroutine when the host runs on a real-time
// executor.
func (c *Consumer) Fetch(interest *ndn.Interest, handler func(FetchResult)) {
	c.fwd.scheduleCall(0, netsim.EventApp, c.start, &pendingFetch{interest: *interest, handler: handler})
}

// fetch runs inside the executor (arg is the fetch's *pendingFetch): it
// draws the nonce there, so RNG order is event order, registers the
// fetch, arms its lifetime timer and sends its interest.
func (c *Consumer) fetch(arg any) {
	p := arg.(*pendingFetch)
	interest := &p.interest
	if interest.Nonce == 0 {
		interest.Nonce = c.fwd.Sim().Rand().Uint64()
	}
	p.sentAt = c.fwd.Sim().Now()

	// Open the trace root: this interest's admission at the consumer.
	// The stamped interest propagates the context through the host
	// forwarder and everything it causes.
	if tr := c.fwd.tap.Tracer(); tr != nil {
		var ctx span.Context
		p.root, ctx = tr.StartRoot(interest.Name.Hash(), c.fwd.name, interest.Name.String(), int64(p.sentAt))
		interest.TraceID, interest.SpanID = ctx.Trace, ctx.Span
	}
	if tail, found := c.pending.Get(interest.Name); !found {
		c.pending.Put(interest.Name, p)
	} else {
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = p
	}

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
	name := p.interest.Name
	if head, _ := c.pending.Get(name); head == p {
		if p.next == nil {
			c.pending.Delete(name)
		} else {
			c.pending.Put(name, p.next)
		}
	} else {
		for ; head != nil; head = head.next {
			if head.next == p {
				head.next = p.next
				break
			}
		}
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
	// Resolve every pending fetch whose name is a prefix of the data name
	// (the NDN matching rule): one pass over its components folds the
	// hash of each prefix and probes the pending set with it.
	h := ndn.NameHashSeed()
	comps := data.Name.Components()
	for k := 0; ; k++ {
		if head, found := c.pending.GetPrefix(h, k, data.Name); found {
			if prefix := data.Name.Prefix(k); data.MatchesName(prefix) {
				// The chain holds exactly the name's unanswered fetches: a
				// timeout unlinks its own.
				for p := head; p != nil; p = p.next {
					p.done = true
					c.fwd.tap.Tracer().End(p.root, int64(now), "ok")
					p.handler(FetchResult{Data: data, RTT: now - p.sentAt})
				}
				c.pending.Delete(prefix)
			}
		}
		if !comps.Next() {
			break
		}
		h = ndn.MixComponentHash(h, comps.Component())
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
	// answer is p.respond bound once, so scheduling an answer allocates
	// no closure.
	answer func(arg any)

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
	p.answer = p.respond
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
// It stores a deep copy: this is where application buffers enter the
// network, so the caller may reuse data's buffers on return.
func (p *Producer) Publish(data *ndn.Data) error {
	if !p.prefix.IsPrefixOf(data.Name) {
		return errors.New("fwd: content name outside producer prefix")
	}
	if p.signer != nil {
		p.signer.Sign(data)
	}
	p.repo.Insert(data.Clone(), p.fwd.Sim().Now(), 0)
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
	p.fwd.scheduleCall(p.ResponseDelay, netsim.EventApp, p.answer, &data)
}

// respond sends one answer (arg is its *ndn.Data) after the response
// delay.
func (p *Producer) respond(arg any) {
	p.fwd.SendData(p.faceID, arg.(*ndn.Data))
}
