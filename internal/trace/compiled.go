package trace

import (
	"time"

	"ndnprivacy/internal/ndn"
)

// Compiled is a synthetic trace drawn once and replayed many times. The
// Section VII evaluation runs every (algorithm, cache size) cell over
// the identical request stream, so the Zipf table, the draws and the
// object names are paid for once per sweep instead of once per cell.
//
// Requests are stored as columns; everything that depends only on the
// object — its name, its private bit, the Data upstream returns for it —
// is stored once per distinct object. A Compiled is immutable after
// Compile, and any number of goroutines may Replay it at once.
type Compiled struct {
	at     []time.Duration
	user   []int32
	object []int32 // index into objects, per request

	// objects holds the distinct objects in first-request order.
	objects []compiledObject
}

type compiledObject struct {
	rank int
	// data carries the object's name and private bit and doubles as the
	// fetched content every replay inserts: each store keeps a pointer
	// to this very packet, which nothing writes (see ndn.Data).
	data ndn.Data
}

// Compile draws the whole stream NewGenerator(cfg) would produce.
func Compile(cfg GeneratorConfig) (*Compiled, error) {
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		at:     make([]time.Duration, 0, cfg.Requests),
		user:   make([]int32, 0, cfg.Requests),
		object: make([]int32, 0, cfg.Requests),
	}
	index := make(map[int]int32)
	for {
		at, user, rank, more := gen.draw()
		if !more {
			return c, nil
		}
		id, seen := index[rank]
		if !seen {
			id = int32(len(c.objects))
			index[rank] = id
			c.objects = append(c.objects, compiledObject{rank: rank, data: ndn.Data{
				Name:    ObjectName(rank),
				Payload: unitPayload,
				Private: gen.ObjectIsPrivate(rank),
			}})
		}
		c.at = append(c.at, at)
		c.user = append(c.user, int32(user))
		c.object = append(c.object, id)
	}
}

// Replay streams the trace through a router cache under the configured
// algorithm, exactly as Replay does for the generator it was compiled
// from.
func (c *Compiled) Replay(cfg ReplayConfig) (ReplayStats, error) {
	return replayStream(c.requests(), cfg)
}

// requests returns a cursor over the trace in replayStream's source
// form. Each cursor is independent; the trace itself is only read.
func (c *Compiled) requests() func() (Request, bool, error) {
	i := 0
	return func() (Request, bool, error) {
		if i >= len(c.at) {
			return Request{}, false, nil
		}
		o := &c.objects[c.object[i]]
		req := Request{
			At:      c.at[i],
			User:    int(c.user[i]),
			Name:    o.data.Name,
			Private: o.data.Private,
			Object:  o.rank,
			Fetched: &o.data,
		}
		i++
		return req, true, nil
	}
}
